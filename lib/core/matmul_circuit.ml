open Tcmm_threshold
open Tcmm_arith
module Matrix = Tcmm_fastmm.Matrix

type built = {
  builder : Builder.t;
  mutable packed : Packed.t option;
  layout_a : Encode.t;
  layout_b : Encode.t;
  c_grid : Repr.signed_bits array array;
  schedule : Level_schedule.t;
}

let build ?(mode = Builder.Direct) ?(templates = true)
    ?(signed_inputs = false) ?share_top ~algo ~schedule ~entry_bits ~n
    () =
  let b = Builder.create ~mode ~templates () in
  let layout_a = Encode.alloc b ~n ~entry_bits ~signed:signed_inputs in
  let layout_b = Encode.alloc b ~n ~entry_bits ~signed:signed_inputs in
  let leaves_a =
    Sum_tree.compute_leaves ?share_top b ~algo
      ~coeffs:(Sum_tree.a_coeffs algo) ~schedule (Encode.grid layout_a)
  in
  let leaves_b =
    Sum_tree.compute_leaves ?share_top b ~algo
      ~coeffs:(Sum_tree.b_coeffs algo) ~schedule (Encode.grid layout_b)
  in
  let products =
    Array.init (Array.length leaves_a) (fun k ->
        Product.signed_product2 b leaves_a.(k) leaves_b.(k))
  in
  let c_grid = Combine_tree.combine ?share_top b ~algo ~schedule products in
  Array.iter
    (Array.iter (fun (sb : Repr.signed_bits) ->
         Array.iter (Builder.output b) sb.Repr.pos_bits;
         Array.iter (Builder.output b) sb.Repr.neg_bits))
    c_grid;
  { builder = b; packed = None; layout_a; layout_b; c_grid; schedule }

let encode_inputs built ~a ~b =
  let input =
    Array.make (Encode.total_wires built.layout_a + Encode.total_wires built.layout_b) false
  in
  Encode.write built.layout_a a input;
  Encode.write built.layout_b b input;
  input

let circuit built = Builder.finalize built.builder

let pack built =
  match built.packed with
  | Some p -> p
  | None ->
      let p = Packed.of_arena (Builder.arena built.builder) in
      built.packed <- Some p;
      p

let simulate ?(engine = Simulator.Packed) built inputs =
  match engine with
  | Simulator.Reference -> Simulator.run (circuit built) inputs
  | Simulator.Packed -> Packed.run (pack built) inputs

let decode built read =
  let n = Array.length built.c_grid in
  Matrix.init ~rows:n ~cols:n (fun i j -> Repr.eval_sbits read built.c_grid.(i).(j))

let run ?engine built ~a ~b =
  let r = simulate ?engine built (encode_inputs built ~a ~b) in
  decode built (Simulator.value r)

let run_batch built pairs =
  let batch = Array.map (fun (a, b) -> encode_inputs built ~a ~b) pairs in
  let br = Packed.run_batch (pack built) batch in
  Array.init (Array.length pairs) (fun lane ->
      decode built (Packed.batch_value br ~lane))

let stats built = Builder.stats built.builder
