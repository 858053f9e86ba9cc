open Tcmm_threshold
open Tcmm_arith
module Matrix = Tcmm_fastmm.Matrix

(* Shared by the three drivers: [packed] lowers the builder's arena on
   first use, and the reference engine reads the expanded circuit. *)
let simulate ?(engine = Simulator.Packed) b packed input =
  match engine with
  | Simulator.Reference -> Simulator.run (Builder.finalize b) input
  | Simulator.Packed -> Packed.run (Lazy.force packed) input

let compile b = lazy (Packed.of_arena (Builder.arena b))

(* ------------------------------------------------------------------ *)
(* Triangle threshold (paper, Section 1)                              *)
(* ------------------------------------------------------------------ *)

type triangle_built = {
  builder : Builder.t;
  output : Wire.t;
  n : int;
  tau : int;
  packed : Packed.t Lazy.t;
}

(* Edge variable x_ij (i < j) position in lexicographic order. *)
let edge_index ~n i j =
  if not (0 <= i && i < j && j < n) then invalid_arg "edge_index: need 0 <= i < j < n";
  (* Edges (0,1)..(0,n-1), (1,2)..: offset of row i is
     i*n - i*(i+1)/2 - i ... computed directly. *)
  (i * (n - 1)) - (i * (i - 1) / 2) + (j - i - 1)

let triangle_threshold ?(mode = Builder.Direct) ~n ~tau () =
  if n < 3 then invalid_arg "Naive_circuits.triangle_threshold: n < 3";
  let b = Builder.create ~mode () in
  let edges = Builder.add_inputs b (n * (n - 1) / 2) in
  let gates = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      for k = j + 1 to n - 1 do
        let inputs =
          [|
            edges.(edge_index ~n i j);
            edges.(edge_index ~n i k);
            edges.(edge_index ~n j k);
          |]
        in
        let g = Builder.add_gate b ~inputs ~weights:[| 1; 1; 1 |] ~threshold:3 in
        gates := (g, 1) :: !gates
      done
    done
  done;
  let output = Builder.add_gate_terms b ~terms:(List.rev !gates) ~threshold:tau in
  Builder.output b output;
  { builder = b; output; n; tau; packed = compile b }

let triangle_circuit (built : triangle_built) = Builder.finalize built.builder

let triangle_encode built m =
  let n = built.n in
  if Matrix.rows m <> n || Matrix.cols m <> n then
    invalid_arg "triangle_encode: dimension mismatch";
  let input = Array.make (n * (n - 1) / 2) false in
  for i = 0 to n - 1 do
    if Matrix.get m i i <> 0 then invalid_arg "triangle_encode: nonzero diagonal";
    for j = i + 1 to n - 1 do
      let v = Matrix.get m i j in
      if v <> Matrix.get m j i then invalid_arg "triangle_encode: asymmetric matrix";
      if v <> 0 && v <> 1 then invalid_arg "triangle_encode: non-binary entry";
      input.(edge_index ~n i j) <- v = 1
    done
  done;
  input

let triangle_run ?engine built m =
  (simulate ?engine built.builder built.packed (triangle_encode built m))
    .Simulator.outputs.(0)

(* ------------------------------------------------------------------ *)
(* Naive trace threshold                                              *)
(* ------------------------------------------------------------------ *)

type trace_built = {
  builder : Builder.t;
  output : Wire.t;
  trace_repr : Repr.signed;
  layout : Encode.t;
  tau : int;
  packed : Packed.t Lazy.t;
}

let trace_threshold ?(mode = Builder.Direct) ?(templates = true)
    ?(signed_inputs = false) ~entry_bits ~tau ~n () =
  let b = Builder.create ~mode ~templates () in
  let layout = Encode.alloc b ~n ~entry_bits ~signed:signed_inputs in
  let grid = Encode.grid layout in
  let products = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        products := Product.signed_product3 b grid.(i).(j) grid.(j).(k) grid.(k).(i) :: !products
      done
    done
  done;
  let trace_repr = Repr.concat_signed (List.rev !products) in
  let output = Compare.ge b trace_repr tau in
  Builder.output b output;
  { builder = b; output; trace_repr; layout; tau; packed = compile b }

let trace_circuit (built : trace_built) = Builder.finalize built.builder

let trace_simulate ?engine built m =
  let input = Array.make (Encode.total_wires built.layout) false in
  Encode.write built.layout m input;
  simulate ?engine built.builder built.packed input

let trace_run ?engine built m =
  (trace_simulate ?engine built m).Simulator.outputs.(0)

let trace_value ?engine built m =
  Repr.eval_signed
    (Simulator.value (trace_simulate ?engine built m))
    built.trace_repr

(* ------------------------------------------------------------------ *)
(* Naive matrix product                                               *)
(* ------------------------------------------------------------------ *)

type matmul_built = {
  builder : Builder.t;
  layout_a : Encode.t;
  layout_b : Encode.t;
  c_grid : Repr.signed_bits array array;
  packed : Packed.t Lazy.t;
}

let matmul ?(mode = Builder.Direct) ?(templates = true)
    ?(signed_inputs = false) ~entry_bits ~n () =
  let b = Builder.create ~mode ~templates () in
  let layout_a = Encode.alloc b ~n ~entry_bits ~signed:signed_inputs in
  let layout_b = Encode.alloc b ~n ~entry_bits ~signed:signed_inputs in
  let grid_a = Encode.grid layout_a and grid_b = Encode.grid layout_b in
  let c_grid =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let terms =
              List.init n (fun k ->
                  (1, Product.signed_product2 b grid_a.(i).(k) grid_b.(k).(j)))
            in
            Weighted_sum.signed_sum b terms))
  in
  Array.iter
    (Array.iter (fun (sb : Repr.signed_bits) ->
         Array.iter (Builder.output b) sb.Repr.pos_bits;
         Array.iter (Builder.output b) sb.Repr.neg_bits))
    c_grid;
  { builder = b; layout_a; layout_b; c_grid; packed = compile b }

let matmul_circuit (built : matmul_built) = Builder.finalize built.builder

(* ------------------------------------------------------------------ *)
(* Closed-form statistics                                             *)
(* ------------------------------------------------------------------ *)

module Checked = Tcmm_util.Checked

let triangle_counts ~n =
  let triples = n * (n - 1) * (n - 2) / 6 in
  (* One AND gate of fan-in 3 per triple plus the output gate reading
     every triple gate. *)
  (triples + 1, (3 * triples) + triples)

let trace_counts ?(signed_inputs = false) ~entry_bits ~n () =
  let m = if signed_inputs then 2 * entry_bits else entry_bits in
  (* signed_product3 emits (sum of widths)^3 AND-3 gates per (i,j,k)
     triple; every product term also feeds the output gate. *)
  let per_triple = m * m * m in
  let products = Checked.mul (Checked.mul n (Checked.mul n n)) per_triple in
  (Checked.add products 1, Checked.add (Checked.mul 3 products) products)

let matmul_counts ?(signed_inputs = false) ~entry_bits ~n () =
  let m = if signed_inputs then 2 * entry_bits else entry_bits in
  let b = entry_bits in
  (* Per output entry: n signed products of b-bit entries (m^2 AND gates
     each, where m counts both sign parts), then one Lemma 3.2 signed sum
     whose positive part receives, for each bit position u < 2b, the
     product terms of that weight. *)
  let per_pair = m * m in
  let product_gates = Checked.mul n per_pair in
  (* Weight multiset of one part of the sum: products of two b-bit
     numbers contribute weight 2^(i+j); for unsigned inputs only the
     (pos, pos) combination feeds the positive part; for signed inputs
     (pos,pos) and (neg,neg) do. *)
  let combos_per_part = if signed_inputs then 2 else 1 in
  let multiset =
    List.init ((2 * b) - 1) (fun u ->
        (* number of (i, j) pairs with i + j = u, i, j < b *)
        let pairs = min u ((2 * b) - 2 - u) + 1 in
        let pairs = min pairs b in
        (1 lsl u, Checked.mul (Checked.mul n pairs) combos_per_part))
  in
  let sum_gates, sum_edges = Tcmm_arith.Weighted_sum.to_bits_cost multiset in
  let parts = if signed_inputs then 2 else 1 in
  let per_entry =
    ( Checked.add product_gates (parts * sum_gates),
      Checked.add (Checked.mul 2 product_gates) (parts * sum_edges) )
  in
  let entries = n * n in
  (Checked.mul entries (fst per_entry), Checked.mul entries (snd per_entry))

let matmul_run ?engine built ~a ~b =
  let input =
    Array.make
      (Encode.total_wires built.layout_a + Encode.total_wires built.layout_b)
      false
  in
  Encode.write built.layout_a a input;
  Encode.write built.layout_b b input;
  let r = simulate ?engine built.builder built.packed input in
  let n = Array.length built.c_grid in
  Matrix.init ~rows:n ~cols:n (fun i j ->
      Repr.eval_sbits (Simulator.value r) built.c_grid.(i).(j))
