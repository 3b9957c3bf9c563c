exception Bad_line of string

let bad reason = raise (Bad_line reason)

let int s =
  match int_of_string_opt s with Some n -> n | None -> bad ("bad integer " ^ s)

let float s =
  match float_of_string_opt s with Some x -> x | None -> bad ("bad number " ^ s)

let hex = Printf.sprintf "%h"

let render ~magic lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    ((magic ^ " 1") :: lines);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let parse ~magic ~what content f =
  let fail msg = Error (Printf.sprintf "corrupt %s: %s" what msg) in
  (* The whole body is split off before any line is parsed, so a torn
     file reports its missing trailer, not its broken last line. *)
  let rec body acc = function
    | [] -> fail "truncated (missing end marker)"
    | "end" :: rest ->
        if List.for_all (fun l -> l = "") rest then Ok (List.rev acc)
        else fail "content after end marker"
    | l :: rest -> body (l :: acc) rest
  in
  let rec go = function
    | [] -> Ok ()
    | "" :: rest -> go rest
    | line :: rest -> (
        match f (String.split_on_char ' ' line) with
        | () -> go rest
        | exception Bad_line reason -> fail (reason ^ " in line: " ^ line))
  in
  match String.split_on_char '\n' content with
  | header :: rest when header = magic ^ " 1" -> Result.bind (body [] rest) go
  | header :: _ when String.starts_with ~prefix:(magic ^ " ") header ->
      fail ("unsupported format version: " ^ header)
  | _ -> fail (Printf.sprintf "missing %S header" (magic ^ " 1"))
