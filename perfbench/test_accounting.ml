(* The benchmark's own test: the percentile rule and the traced run's
   time accounting, on synthetic spans. Run with [dune runtest]. *)

open Perfbench_accounting.Accounting

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* tail rule: at least ten samples above the reported rank *)
  expect "1000 samples -> p99" (fst (tail_label 1000) = "p99");
  expect "999 samples -> p95" (fst (tail_label 999) = "p95");
  expect "10000 samples -> p99" (fst (tail_label 10000) = "p99");
  expect "5 samples -> p50" (fst (tail_label 5) = "p50");
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  expect "p50 of 1..100" (close (percentile sorted 0.5) 50.0);
  expect "p99 of 1..100" (close (percentile sorted 0.99) 99.0);
  expect "p100 of 1..100" (close (percentile sorted 1.0) 100.0)

let span id parent name dur = { id; parent; name; dur }

let () =
  (* root 10 s = a (4 s, holding c 1 s) + b (3 s) + 3 s of its own *)
  let spans =
    [
      span 1 None "bench.op" 10.0;
      span 2 (Some 1) "a" 4.0;
      span 3 (Some 2) "c" 1.0;
      span 4 (Some 1) "b" 3.0;
      (* outside any bench tree: ignored *)
      span 5 None "sampler" 7.0;
    ]
  in
  let is_root name = name = "bench.op" in
  let selfs = self_times ~is_root spans in
  expect "self times"
    (selfs = [ ("a", 3.0); ("b", 3.0); ("bench.op", 3.0); ("c", 1.0) ]);
  let acc = make ~total:10.5 selfs in
  expect "unattributed is the loop remainder" (close acc.unattributed 0.5);
  expect "consistent accounting passes" (check acc = Ok ());
  let share_sum = List.fold_left (fun s (_, x) -> s +. x) 0.0 (shares acc) in
  expect "shares sum to 1" (close share_sum 1.0);
  (* two children claiming more than their parent: overlap is caught *)
  let overlapped =
    [
      span 1 None "bench.op" 2.0;
      span 2 (Some 1) "a" 1.5;
      span 3 (Some 1) "b" 1.5;
    ]
  in
  let bad = make ~total:2.0 (self_times ~is_root overlapped) in
  expect "overlapping layers fail" (Result.is_error (check bad));
  (* layers that add up to more than the traced total fail *)
  let over = make ~total:1.0 [ ("a", 0.8); ("b", 0.8) ] in
  expect "over-attribution fails" (Result.is_error (check over));
  (* a span whose parent was never recorded is its own root *)
  let orphan = [ span 9 (Some 42) "bench.op" 1.0 ] in
  expect "orphan is a root" (self_times ~is_root orphan = [ ("bench.op", 1.0) ])

let () =
  if !failures > 0 then exit 1;
  print_endline "perfbench accounting: ok"
