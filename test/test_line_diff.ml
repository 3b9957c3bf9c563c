module Line_diff = Versioning_delta.Line_diff
module Prng = Versioning_util.Prng
module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics

let test_roundtrip_basic () =
  let a = "one\ntwo\nthree" and b = "one\n2\nthree\nfour" in
  let d = Line_diff.diff a b in
  Alcotest.(check string) "apply" b (Line_diff.apply a d)

let test_trailing_newline_distinct () =
  let a = "x\ny" and b = "x\ny\n" in
  let d = Line_diff.diff a b in
  Alcotest.(check string) "trailing newline preserved" b (Line_diff.apply a d);
  let d' = Line_diff.diff b a in
  Alcotest.(check string) "and removed" a (Line_diff.apply b d')

let test_empty_documents () =
  let d = Line_diff.diff "" "" in
  Alcotest.(check string) "empty to empty" "" (Line_diff.apply "" d);
  let d = Line_diff.diff "" "a\nb" in
  Alcotest.(check string) "empty to doc" "a\nb" (Line_diff.apply "" d);
  let d = Line_diff.diff "a\nb" "" in
  Alcotest.(check string) "doc to empty" "" (Line_diff.apply "a\nb" d)

let test_invert () =
  let a = "a\nb\nc\nd" and b = "a\nX\nc" in
  let d = Line_diff.diff a b in
  let inv = Line_diff.invert a d in
  Alcotest.(check string) "inverse recovers a" a (Line_diff.apply b inv)

let test_changed_lines () =
  let d = Line_diff.diff "a\nb\nc" "a\nB\nc" in
  Alcotest.(check int) "1 del + 1 ins" 2 (Line_diff.n_changed_lines d);
  let d = Line_diff.diff "a" "a" in
  Alcotest.(check int) "identical" 0 (Line_diff.n_changed_lines d)

let test_encode_decode () =
  let a = "alpha\nbeta\ngamma\ndelta" and b = "alpha\nBETA\ngamma\nepsilon\nzeta" in
  let d = Line_diff.diff a b in
  let d' = Line_diff.decode (Line_diff.encode d) in
  Alcotest.(check bool) "decode . encode = id" true (Line_diff.equal d d');
  Alcotest.(check string) "decoded applies" b (Line_diff.apply a d')

let test_decode_malformed () =
  Alcotest.check_raises "garbage header"
    (Invalid_argument "Line_diff.decode: bad header") (fun () ->
      ignore (Line_diff.decode "nonsense\n"));
  Alcotest.check_raises "truncated payload"
    (Invalid_argument "Line_diff.decode: truncated insert payload") (fun () ->
      ignore (Line_diff.decode "I 5\nonly one line\n"))

let test_apply_wrong_source () =
  let d = Line_diff.diff "a\nb\nc\nd\ne" "a\nb" in
  Alcotest.(check bool) "wrong source rejected" true
    (match Line_diff.apply "a" d with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* a count that would overflow [pos + k] is still a short source *)
  Alcotest.check_raises "overflowing count"
    (Invalid_argument "Line_diff.apply: source too short") (fun () ->
      ignore
        (Line_diff.apply "a\nb\nc"
           (Line_diff.decode (Printf.sprintf "K 1\nD %d\nD %d\nK 3\n" max_int max_int))))

let test_size_positive () =
  let d = Line_diff.diff "a\nb" "a\nc" in
  Alcotest.(check bool) "size > 0" true (Line_diff.size d > 0);
  Alcotest.(check bool) "symmetric >= one way" true
    (Line_diff.symmetric_size (Line_diff.intern [| "a\nb" |]) 0 d
    >= Line_diff.size d)

let gen_doc rng =
  let n = Prng.int rng 40 in
  String.concat "\n"
    (List.init n (fun _ -> Printf.sprintf "line-%d" (Prng.int rng 12)))

let test_random_roundtrips () =
  let rng = Prng.create ~seed:77 in
  for _ = 1 to 500 do
    let a = gen_doc rng and b = gen_doc rng in
    let d = Line_diff.diff a b in
    if Line_diff.apply a d <> b then Alcotest.fail "round trip failed";
    let inv = Line_diff.invert a d in
    if Line_diff.apply b inv <> a then Alcotest.fail "invert failed";
    let d' = Line_diff.decode (Line_diff.encode d) in
    if not (Line_diff.equal d d') then Alcotest.fail "codec failed"
  done

(* ---- interned lines ----

   Documents over a small line pool, so lines repeat within and across
   documents; the pool has the empty line, spaces and carriage returns,
   and a document may end with or without a final newline. *)

let gen_docs =
  QCheck.Gen.(
    let line = oneofl [ ""; " "; "a b"; "a"; "b"; "x\r"; "\r"; "a b \r"; "1,2" ] in
    let doc =
      map2
        (fun ls trailing ->
          let d = String.concat "\n" ls in
          if trailing then d ^ "\n" else d)
        (list_size (int_range 0 12) line)
        bool
    in
    array_size (int_range 1 6) doc)

let print_docs docs =
  String.concat " | " (Array.to_list (Array.map String.escaped docs))

let encode_counters () =
  let snap = Metrics.snapshot_values () in
  let get name = Option.value (List.assoc_opt name snap) ~default:0.0 in
  ( get "dsvc_delta_line_encode_total",
    get "dsvc_delta_line_encode_bytes_total" )

let qcheck_interned =
  QCheck.Test.make ~count:300
    ~name:"diff_in = diff, size = |encode|, sizes count as encodes"
    (QCheck.make ~print:print_docs gen_docs)
    (fun docs ->
      let lines = Line_diff.intern docs in
      let n = Array.length docs in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let d = Line_diff.diff docs.(u) docs.(v) in
          if not (Line_diff.equal (Line_diff.diff_in lines u v) d) then
            QCheck.Test.fail_reportf "diff_in %d %d differs from diff" u v;
          let encoded = Line_diff.encode d in
          if Line_diff.size d <> String.length encoded then
            QCheck.Test.fail_reportf "size %d %d: %d, encoded %d bytes" u v
              (Line_diff.size d) (String.length encoded);
          if
            Line_diff.symmetric_size lines u d
            <> String.length encoded
               + String.length (Line_diff.encode (Line_diff.invert docs.(u) d))
          then QCheck.Test.fail_reportf "symmetric_size %d %d" u v;
          Obs.with_enabled true (fun () ->
              let c0, b0 = encode_counters () in
              ignore (Line_diff.size d);
              let c1, b1 = encode_counters () in
              ignore (Line_diff.encode d);
              let c2, b2 = encode_counters () in
              if c1 -. c0 <> 1.0 || c2 -. c1 <> 1.0 || b1 -. b0 <> b2 -. b1 then
                QCheck.Test.fail_reportf
                  "counters: size moved (%g, %g), encode (%g, %g)" (c1 -. c0)
                  (b1 -. b0) (c2 -. c1) (b2 -. b1))
        done
      done;
      true)

(* ---- replay on line arrays ----

   The list-based [apply] that replay used before it ran on line
   arrays, kept as the reference: the array replay must give the same
   documents and raise the same [Invalid_argument] text. *)
let ref_apply a d =
  let la = Array.of_list (String.split_on_char '\n' a) in
  let out = ref [] and pos = ref 0 in
  List.iter
    (function
      | Line_diff.Keep k ->
          if !pos + k > Array.length la then
            invalid_arg "Line_diff.apply: source too short";
          for i = !pos to !pos + k - 1 do
            out := la.(i) :: !out
          done;
          pos := !pos + k
      | Line_diff.Delete k ->
          if !pos + k > Array.length la then
            invalid_arg "Line_diff.apply: source too short";
          pos := !pos + k
      | Line_diff.Insert lines -> Array.iter (fun l -> out := l :: !out) lines)
    (Line_diff.ops d);
  if !pos <> Array.length la then
    invalid_arg "Line_diff.apply: script does not consume the whole source";
  String.concat "\n" (List.rev !out)

let outcome f = match f () with r -> Ok r | exception Invalid_argument e -> Error e

let print_outcome = function
  | Ok s -> "Ok " ^ String.escaped s
  | Error e -> "Error " ^ e

(* [docs] as a chain a₀…a_k: each stored delta goes through the codec,
   as the store's do. *)
let qcheck_replay_lines =
  QCheck.Test.make ~count:300
    ~name:"chain replay on lines = string fold = reference, errors included"
    (QCheck.make ~print:print_docs gen_docs)
    (fun docs ->
      let n = Array.length docs in
      Array.iter
        (fun a ->
          if Line_diff.join (Line_diff.split a) <> a then
            QCheck.Test.fail_reportf "join . split <> id on %S" a)
        docs;
      let deltas =
        List.init (n - 1) (fun i ->
            Line_diff.decode (Line_diff.encode (Line_diff.diff docs.(i) docs.(i + 1))))
      in
      let by_lines =
        Line_diff.join
          (List.fold_left Line_diff.apply_lines (Line_diff.split docs.(0)) deltas)
      in
      let by_strings = List.fold_left Line_diff.apply docs.(0) deltas in
      let by_ref = List.fold_left ref_apply docs.(0) deltas in
      if by_lines <> docs.(n - 1) || by_strings <> by_lines || by_ref <> by_lines then
        QCheck.Test.fail_reportf "chain end %S: lines %S, strings %S, reference %S"
          docs.(n - 1) by_lines by_strings by_ref;
      (* every delta against every other document of the chain, one with
         an extra line (which must fail) and, when there is one to
         drop, one without its last line *)
      List.iteri
        (fun i d ->
          let base = docs.(i) in
          let shorter =
            match String.rindex_opt base '\n' with
            | Some k -> [ String.sub base 0 k ]
            | None -> []
          in
          List.iter
            (fun b ->
              let expected = outcome (fun () -> ref_apply b d) in
              let by_lines =
                outcome (fun () -> Line_diff.join (Line_diff.apply_lines (Line_diff.split b) d))
              in
              let by_string = outcome (fun () -> Line_diff.apply b d) in
              if by_lines <> expected || by_string <> expected then
                QCheck.Test.fail_reportf "delta %d on %S: reference %s, lines %s, apply %s" i b
                  (print_outcome expected) (print_outcome by_lines)
                  (print_outcome by_string))
            ((base ^ "\nx") :: shorter @ Array.to_list docs);
          match Line_diff.apply (base ^ "\nx") d with
          | _ -> QCheck.Test.fail_reportf "delta %d fits a longer base" i
          | exception Invalid_argument _ -> ())
        deltas;
      true)

let suite =
  [
    Alcotest.test_case "roundtrip basic" `Quick test_roundtrip_basic;
    Alcotest.test_case "trailing newline" `Quick test_trailing_newline_distinct;
    Alcotest.test_case "empty documents" `Quick test_empty_documents;
    Alcotest.test_case "invert" `Quick test_invert;
    Alcotest.test_case "changed lines" `Quick test_changed_lines;
    Alcotest.test_case "encode / decode" `Quick test_encode_decode;
    Alcotest.test_case "decode malformed" `Quick test_decode_malformed;
    Alcotest.test_case "apply wrong source" `Quick test_apply_wrong_source;
    Alcotest.test_case "sizes" `Quick test_size_positive;
    Alcotest.test_case "random roundtrips" `Quick test_random_roundtrips;
    QCheck_alcotest.to_alcotest qcheck_interned;
    QCheck_alcotest.to_alcotest qcheck_replay_lines;
  ]
