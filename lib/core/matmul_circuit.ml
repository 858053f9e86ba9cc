open Tcmm_threshold
open Tcmm_arith
module Matrix = Tcmm_fastmm.Matrix

type built = {
  builder : Builder.t;
  circuit : Circuit.t option;
  mutable packed : Packed.t option;
  layout_a : Encode.t;
  layout_b : Encode.t;
  c_grid : Repr.signed_bits array array;
  schedule : Level_schedule.t;
}

let build ?(mode = Builder.Materialize) ?(templates = true)
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
  let circuit =
    match mode with
    | Builder.Materialize -> Some (Builder.finalize b)
    | Builder.Count_only | Builder.Direct -> None
  in
  { builder = b; circuit; packed = None; layout_a; layout_b; c_grid; schedule }

let encode_inputs built ~a ~b =
  let input =
    Array.make (Encode.total_wires built.layout_a + Encode.total_wires built.layout_b) false
  in
  Encode.write built.layout_a a input;
  Encode.write built.layout_b b input;
  input

let pack built =
  match built.packed with
  | Some p -> p
  | None ->
      let p =
        match (built.circuit, Builder.mode built.builder) with
        | Some c, _ -> Packed.of_circuit c
        | None, Builder.Direct -> Packed.of_arena (Builder.arena built.builder)
        | None, _ ->
            invalid_arg "Matmul_circuit: circuit was built in Count_only mode"
      in
      built.packed <- Some p;
      p

(* The reference interpreter reads the builder's own circuit when there
   is one, so a Materialize build's reference leg never goes through
   the packed compiler. *)
let simulate ?(engine = Simulator.Packed) built inputs =
  match (engine, built.circuit) with
  | Simulator.Reference, Some c -> Simulator.run c inputs
  | Simulator.Reference, None -> Simulator.run (Packed.circuit (pack built)) inputs
  | Simulator.Packed, _ -> Packed.run (pack built) inputs

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
