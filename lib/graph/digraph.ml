type 'a edge = { src : int; dst : int; label : 'a }

(* Growable edge buckets: one out-bucket and one in-bucket per vertex.
   Buckets are plain arrays doubled on demand; [lengths] track fill. *)
type 'a bucket = { mutable data : 'a edge array; mutable len : int }

type 'a t = {
  n : int;
  mutable m : int;
  out : 'a bucket array;
  inc : 'a bucket array;
}

let empty_bucket () = { data = [||]; len = 0 }

let bucket_push b e =
  let cap = Array.length b.data in
  if b.len = cap then begin
    let ncap = if cap = 0 then 4 else 2 * cap in
    let ndata = Array.make ncap e in
    Array.blit b.data 0 ndata 0 b.len;
    b.data <- ndata
  end;
  b.data.(b.len) <- e;
  b.len <- b.len + 1

let create ~n =
  if n < 0 then invalid_arg "Digraph.create";
  {
    n;
    m = 0;
    out = Array.init n (fun _ -> empty_bucket ());
    inc = Array.init n (fun _ -> empty_bucket ());
  }

let n_vertices g = g.n
let n_edges g = g.m

let check_vertex g v name =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Digraph.%s: vertex %d out of range" name v)

let add_edge g ~src ~dst label =
  check_vertex g src "add_edge";
  check_vertex g dst "add_edge";
  if src = dst then invalid_arg "Digraph.add_edge: self-loop";
  let e = { src; dst; label } in
  bucket_push g.out.(src) e;
  bucket_push g.inc.(dst) e;
  g.m <- g.m + 1

let iter_bucket b f =
  for i = 0 to b.len - 1 do
    f b.data.(i)
  done

let iter_out g v f =
  check_vertex g v "iter_out";
  iter_bucket g.out.(v) f

let iter_in g v f =
  check_vertex g v "iter_in";
  iter_bucket g.inc.(v) f

let bucket_to_list b =
  let rec go i acc = if i < 0 then acc else go (i - 1) (b.data.(i) :: acc) in
  go (b.len - 1) []

let out_edges g v =
  check_vertex g v "out_edges";
  bucket_to_list g.out.(v)

let in_edges g v =
  check_vertex g v "in_edges";
  bucket_to_list g.inc.(v)

let iter_edges g f =
  for v = 0 to g.n - 1 do
    iter_bucket g.out.(v) f
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun e -> acc := f !acc e);
  !acc

let edges g = List.rev (fold_edges g ~init:[] ~f:(fun acc e -> e :: acc))

(* Both buckets hold the edges in insertion order, so scanning the
   shorter one still finds the first inserted [src -> dst] edge. *)
let find_edge g ~src ~dst =
  check_vertex g src "find_edge";
  let b =
    if dst >= 0 && dst < g.n && g.inc.(dst).len < g.out.(src).len then g.inc.(dst)
    else g.out.(src)
  in
  let rec go i =
    if i >= b.len then None
    else
      let e = b.data.(i) in
      if e.src = src && e.dst = dst then Some e else go (i + 1)
  in
  go 0
