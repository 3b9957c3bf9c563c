(* Elements sit in [buf.(0 .. pushed - 1)] until the ring first
   fills; from then on [buf] has [cap] slots and [next] is both the
   slot the next push overwrites and the oldest element. *)

type 'a t = {
  cap : int;
  mutable buf : 'a array;
  mutable next : int;
  mutable pushed : int;
}

let create cap =
  if cap < 0 then invalid_arg "Bounded_ring.create: negative capacity";
  { cap; buf = [||]; next = 0; pushed = 0 }

let capacity r = r.cap
let pushed r = r.pushed

let push r x =
  if r.cap > 0 then begin
    let len = Array.length r.buf in
    if r.next = len then begin
      (* not yet full and out of room: grow, doubling up to [cap] *)
      let buf = Array.make (min r.cap (max 8 (2 * len))) x in
      Array.blit r.buf 0 buf 0 len;
      r.buf <- buf
    end;
    r.buf.(r.next) <- x;
    r.next <- (if r.next + 1 = r.cap then 0 else r.next + 1)
  end;
  r.pushed <- r.pushed + 1

let to_list r =
  let n = min r.pushed r.cap in
  let first = if r.pushed > r.cap then r.next else 0 in
  List.init n (fun i -> r.buf.((first + i) mod Array.length r.buf))

let newest r =
  if r.pushed = 0 || r.cap = 0 then None
  else
    let len = Array.length r.buf in
    Some r.buf.((r.next + len - 1) mod len)

let clear r =
  r.buf <- [||];
  r.next <- 0;
  r.pushed <- 0
