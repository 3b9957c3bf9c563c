(* Chunker, Varint. *)

module Chunker = Versioning_delta.Chunker
module Varint = Versioning_delta.Varint
module Prng = Versioning_util.Prng

(* ---- Varint ---- *)

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      Varint.add buf n;
      let s = Buffer.contents buf in
      Alcotest.(check int) "size prediction" (String.length s) (Varint.size n);
      let v, p = Varint.read s 0 in
      Alcotest.(check int) "value" n v;
      Alcotest.(check int) "consumed all" (String.length s) p)
    [ 0; 1; 127; 128; 300; 16383; 16384; 1_000_000; max_int / 2 ]

let test_varint_errors () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint.add: negative")
    (fun () -> Varint.add (Buffer.create 1) (-1));
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.read: truncated")
    (fun () -> ignore (Varint.read "\x80" 0))

(* ---- Chunker ---- *)

let rand_bytes rng n = String.init n (fun _ -> Char.chr (Prng.int rng 256))

let test_chunk_coverage () =
  let rng = Prng.create ~seed:181 in
  for _ = 1 to 50 do
    let doc = rand_bytes rng (Prng.int rng 20_000) in
    let chunks = Chunker.chunk doc in
    (match Chunker.reassemble doc chunks with
    | Ok d -> Alcotest.(check int) "covers exactly" (String.length doc) (String.length d)
    | Error e -> Alcotest.fail e);
    List.iter
      (fun c ->
        Alcotest.(check bool) "length bounds" true
          (c.Chunker.length <= 4096
          && (c.Chunker.length >= 1)))
      chunks
  done

let test_chunk_stability_under_insertion () =
  (* inserting bytes near the front must not re-chunk the whole tail *)
  let rng = Prng.create ~seed:191 in
  let doc = rand_bytes rng 50_000 in
  let doc' = String.sub doc 0 100 ^ "INSERTED" ^ String.sub doc 100 (50_000 - 100) in
  let digests d =
    List.map (fun c -> c.Chunker.digest) (Chunker.chunk d)
  in
  let module SS = Set.Make (String) in
  let s1 = SS.of_list (digests doc) and s2 = SS.of_list (digests doc') in
  let shared = SS.cardinal (SS.inter s1 s2) in
  Alcotest.(check bool) "most chunks survive the shift" true
    (float_of_int shared > 0.8 *. float_of_int (SS.cardinal s1))

let test_chunk_validation () =
  Alcotest.(check bool) "bad sizes rejected" true
    (match Chunker.chunk ~min_size:8 "x" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "non-pow2 avg rejected" true
    (match Chunker.chunk ~min_size:16 ~avg_size:300 ~max_size:1000 "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_store_dedup () =
  let store = Chunker.store_create () in
  let rng = Prng.create ~seed:193 in
  let base = rand_bytes rng 30_000 in
  let recipe1 = Chunker.store_add store base in
  let bytes_after_one = Chunker.store_bytes store in
  (* a near-duplicate adds only its changed chunks *)
  let variant = String.sub base 0 15_000 ^ "CHANGED" ^ String.sub base 15_000 15_000 in
  let recipe2 = Chunker.store_add store variant in
  let bytes_after_two = Chunker.store_bytes store in
  Alcotest.(check bool) "near-dup almost free" true
    (bytes_after_two - bytes_after_one < 10_000);
  (* both documents rebuild exactly *)
  Alcotest.(check string) "rebuild base" base
    (Result.get_ok (Chunker.store_get store recipe1));
  Alcotest.(check string) "rebuild variant" variant
    (Result.get_ok (Chunker.store_get store recipe2));
  (* identical re-add costs nothing *)
  let _ = Chunker.store_add store base in
  Alcotest.(check int) "idempotent" bytes_after_two (Chunker.store_bytes store);
  Alcotest.(check bool) "dedup ratio > 1" true
    (Chunker.dedup_ratio store ~originals:(3 * 30_000) > 1.0)

let test_store_missing_chunk () =
  let store = Chunker.store_create () in
  let fake = [ { Chunker.offset = 0; length = 4; digest = Digest.string "nope" } ] in
  match Chunker.store_get store fake with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing chunk must error"

let suite =
  [
    Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "varint errors" `Quick test_varint_errors;
    Alcotest.test_case "chunk coverage" `Quick test_chunk_coverage;
    Alcotest.test_case "chunk stability" `Quick test_chunk_stability_under_insertion;
    Alcotest.test_case "chunk validation" `Quick test_chunk_validation;
    Alcotest.test_case "store dedup" `Quick test_store_dedup;
    Alcotest.test_case "store missing chunk" `Quick test_store_missing_chunk;
  ]
