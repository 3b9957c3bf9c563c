type op =
  | Keep of int
  | Delete of int
  | Insert of string array

type t = { script : op list }

(* A document is its '\n'-separated pieces: n newlines yield n+1
   pieces, so a trailing newline is represented by a final empty piece
   and [join] is an exact inverse. *)
let split s = Array.of_list (String.split_on_char '\n' s)
let join lines = String.concat "\n" (Array.to_list lines)

(* The one Myers-op -> [op] mapping; [line i] is the target's line [i]. *)
let of_myers ~line raw =
  let script =
    List.map
      (function
        | Myers.Keep k -> Keep k
        | Myers.Delete k -> Delete k
        | Myers.Insert (off, k) -> Insert (Array.init k (fun i -> line (off + i))))
      raw
  in
  { script }

let diff a b =
  let la = split a and lb = split b in
  of_myers ~line:(Array.get lb) (Myers.diff ~equal:String.equal la lb)

(* [ids.(u)] is document [u]'s lines as ids into [text]. Interning is
   injective — equal ids iff equal lines — so Myers on the ids sees the
   same equality relation, and takes the same edit path, as on the
   strings. Built once; read-only afterwards, so domains can share it. *)
type lines = { ids : int array array; text : string array }

let intern docs =
  let index = Hashtbl.create 1024 in
  let text = ref [] and next = ref 0 in
  let id l =
    match Hashtbl.find_opt index l with
    | Some i -> i
    | None ->
        let i = !next in
        Hashtbl.add index l i;
        text := l :: !text;
        incr next;
        i
  in
  let ids = Array.map (fun d -> Array.map id (split d)) docs in
  { ids; text = Array.of_list (List.rev !text) }

let diff_in { ids; text } u v =
  let lb = ids.(v) in
  of_myers ~line:(fun i -> text.(lb.(i))) (Myers.diff ~equal:Int.equal ids.(u) lb)

let apply_lines la { script } =
  let n = Array.length la in
  let too_short () = invalid_arg "Line_diff.apply: source too short" in
  (* Check the script against [la] and size the output before
     allocating it, so a corrupt count fails as a short source. [k > n
     - pos] cannot overflow: counts are non-negative and [pos <= n]. *)
  let pos = ref 0 and len = ref 0 in
  List.iter
    (function
      | Keep k ->
          if k > n - !pos then too_short ();
          pos := !pos + k;
          len := !len + k
      | Delete k ->
          if k > n - !pos then too_short ();
          pos := !pos + k
      | Insert lines -> len := !len + Array.length lines)
    script;
  if !pos <> n then
    invalid_arg "Line_diff.apply: script does not consume the whole source";
  let out = Array.make !len "" in
  pos := 0;
  len := 0;
  List.iter
    (function
      | Keep k ->
          Array.blit la !pos out !len k;
          pos := !pos + k;
          len := !len + k
      | Delete k -> pos := !pos + k
      | Insert lines ->
          let k = Array.length lines in
          Array.blit lines 0 out !len k;
          len := !len + k)
    script;
  out

let apply a d = join (apply_lines (split a) d)

let ops { script } = script

(* [line i] is the source document's line [i]. *)
let invert_with ~line { script } =
  let pos = ref 0 in
  let inv =
    List.map
      (fun op ->
        match op with
        | Keep k ->
            pos := !pos + k;
            Keep k
        | Delete k ->
            let at = !pos in
            pos := !pos + k;
            Insert (Array.init k (fun i -> line (at + i)))
        | Insert lines -> Delete (Array.length lines))
      script
  in
  { script = inv }

let invert a t =
  let la = split a in
  invert_with ~line:(Array.get la) t

let n_changed_lines { script } =
  List.fold_left
    (fun acc op ->
      match op with
      | Keep _ -> acc
      | Delete k -> acc + k
      | Insert lines -> acc + Array.length lines)
    0 script

(* Observability only: the store's payload path and the graph
   construction's size probes both count here, a [size] as one
   [encode] of the same bytes. *)
let count_encode bytes =
  if Versioning_obs.Obs.enabled () then begin
    Versioning_obs.Metrics.counter "dsvc_delta_line_encode_total"
      ~help:"Line-diff scripts serialized (includes size probes)";
    Versioning_obs.Metrics.counter "dsvc_delta_line_encode_bytes_total"
      ~by:(float_of_int bytes) ~help:"Serialized line-diff bytes produced"
  end

let encode { script } =
  let buf = Buffer.create 256 in
  List.iter
    (fun op ->
      match op with
      | Keep k -> Buffer.add_string buf (Printf.sprintf "K %d\n" k)
      | Delete k -> Buffer.add_string buf (Printf.sprintf "D %d\n" k)
      | Insert lines ->
          Buffer.add_string buf (Printf.sprintf "I %d\n" (Array.length lines));
          Array.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            lines)
    script;
  let out = Buffer.contents buf in
  count_encode (String.length out);
  out

let decode s =
  if Versioning_obs.Obs.enabled () then
    Versioning_obs.Metrics.counter "dsvc_delta_line_decode_total"
      ~help:"Line-diff scripts parsed back from storage";
  let lines = String.split_on_char '\n' s in
  let fail msg = invalid_arg ("Line_diff.decode: " ^ msg) in
  let parse_header line =
    match String.split_on_char ' ' line with
    | [ tag; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> (tag, n)
        | _ -> fail "bad count")
    | _ -> fail "bad header"
  in
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | [] -> fail "truncated insert payload"
      | l :: tl -> take (k - 1) (l :: acc) tl
  in
  let rec go acc = function
    | [] | [ "" ] -> List.rev acc
    | line :: rest -> (
        match parse_header line with
        | "K", n -> go (Keep n :: acc) rest
        | "D", n -> go (Delete n :: acc) rest
        | "I", n ->
            let payload, rest = take n [] rest in
            go (Insert (Array.of_list payload) :: acc) rest
        | _ -> fail "unknown op")
  in
  { script = go [] lines }

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* [String.length (encode t)] without building it: a header is a tag,
   a space, the count and a newline; a payload line is its bytes and a
   newline. *)
let size { script } =
  let bytes =
    List.fold_left
      (fun acc op ->
        match op with
        | Keep k | Delete k -> acc + 3 + digits k
        | Insert lines ->
            Array.fold_left
              (fun acc l -> acc + String.length l + 1)
              (acc + 3 + digits (Array.length lines))
              lines)
      0 script
  in
  count_encode bytes;
  bytes

let symmetric_size { ids; text } u t =
  let la = ids.(u) in
  size t + size (invert_with ~line:(fun i -> text.(la.(i))) t)

let equal t1 t2 =
  let op_eq o1 o2 =
    match (o1, o2) with
    | Keep a, Keep b | Delete a, Delete b -> a = b
    | Insert a, Insert b -> a = b
    | _ -> false
  in
  List.length t1.script = List.length t2.script
  && List.for_all2 op_eq t1.script t2.script
