(* FNV-1a in two independent 64-bit lanes (different offset bases),
   which in practice behaves like a 128-bit hash for dedup purposes.
   Every stored object is addressed by [hex]: its output must never
   change (test_store pins known answers). *)

let fnv_prime = 0x100000001b3L

let offset_a = 0xcbf29ce484222325L

let offset_b = 0x9ae16a3b2f90404fL

let hex content =
  let a = ref offset_a and b = ref offset_b in
  for i = 0 to String.length content - 1 do
    let byte = Int64.of_int (Char.code (String.get content i)) in
    a := Int64.mul (Int64.logxor !a byte) fnv_prime;
    b := Int64.mul (Int64.logxor !b byte) fnv_prime
  done;
  Printf.sprintf "%016Lx%016Lx" !a !b

let is_valid s =
  String.length s = 32
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s
