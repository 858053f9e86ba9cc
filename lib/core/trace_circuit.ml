open Tcmm_threshold
open Tcmm_arith
module Matrix = Tcmm_fastmm.Matrix

type built = {
  builder : Builder.t;
  circuit : Circuit.t option;
  mutable packed : Packed.t option;
  output : Wire.t;
  trace_repr : Repr.signed;
  layout : Encode.t;
  schedule : Level_schedule.t;
  tau : int;
}

let build_internal ~mode ~templates ~signed_inputs ?share_top ~with_value ~algo
    ~schedule ~entry_bits ~tau ~n () =
  let b = Builder.create ~mode ~templates () in
  let layout = Encode.alloc b ~n ~entry_bits ~signed:signed_inputs in
  let grid = Encode.grid layout in
  let leaves_a =
    Sum_tree.compute_leaves ?share_top b ~algo
      ~coeffs:(Sum_tree.a_coeffs algo) ~schedule grid
  in
  let leaves_b =
    Sum_tree.compute_leaves ?share_top b ~algo
      ~coeffs:(Sum_tree.b_coeffs algo) ~schedule grid
  in
  let leaves_w =
    Sum_tree.compute_leaves ?share_top b ~algo
      ~coeffs:(Sum_tree.w_transposed_coeffs algo) ~schedule
      (Encode.transposed_grid layout)
  in
  let products =
    Array.init (Array.length leaves_a) (fun k ->
        Product.signed_product3 b leaves_a.(k) leaves_b.(k) leaves_w.(k))
  in
  let trace_repr = Repr.concat_signed (Array.to_list products) in
  let output = Compare.ge b trace_repr tau in
  Builder.output b output;
  let value =
    if not with_value then None
    else begin
      let norm = Binary.normalize b trace_repr in
      Builder.output b norm.Binary.sign_negative;
      Array.iter (Builder.output b) norm.Binary.magnitude;
      Some norm
    end
  in
  let circuit =
    match mode with
    | Builder.Materialize -> Some (Builder.finalize b)
    | Builder.Count_only | Builder.Direct -> None
  in
  ( { builder = b; circuit; packed = None; output; trace_repr; layout; schedule;
      tau },
    value )

let build ?(mode = Builder.Materialize) ?(templates = true)
    ?(signed_inputs = false) ?share_top ~algo ~schedule ~entry_bits ~tau ~n
    () =
  fst
    (build_internal ~mode ~templates ~signed_inputs ?share_top ~with_value:false
       ~algo ~schedule ~entry_bits ~tau ~n ())

let build_with_value ?(mode = Builder.Materialize) ?(templates = true)
    ?(signed_inputs = false) ?share_top ~algo ~schedule ~entry_bits ~tau ~n
    () =
  match
    build_internal ~mode ~templates ~signed_inputs ?share_top ~with_value:true
      ~algo ~schedule ~entry_bits ~tau ~n ()
  with
  | built, Some norm -> (built, norm)
  | _, None -> assert false

let build_staged ?(mode = Builder.Materialize) ?(templates = true)
    ?(signed_inputs = false) ~algo ~stages ~entry_bits ~tau ~n () =
  let l =
    Level_schedule.height ~t_dim:algo.Tcmm_fastmm.Bilinear.t_dim ~n
  in
  let b = Builder.create ~mode ~templates () in
  let layout = Encode.alloc b ~n ~entry_bits ~signed:signed_inputs in
  let grid = Encode.grid layout in
  let leaves_a =
    Sum_tree.compute_leaves_staged b ~algo ~coeffs:(Sum_tree.a_coeffs algo) ~stages ~l
      grid
  in
  let leaves_b =
    Sum_tree.compute_leaves_staged b ~algo ~coeffs:(Sum_tree.b_coeffs algo) ~stages ~l
      grid
  in
  let leaves_w =
    Sum_tree.compute_leaves_staged b ~algo ~coeffs:(Sum_tree.w_transposed_coeffs algo)
      ~stages ~l
      (Encode.transposed_grid layout)
  in
  let products =
    Array.init (Array.length leaves_a) (fun k ->
        Product.signed_product3 b leaves_a.(k) leaves_b.(k) leaves_w.(k))
  in
  let trace_repr = Repr.concat_signed (Array.to_list products) in
  let output = Compare.ge b trace_repr tau in
  Builder.output b output;
  let circuit =
    match mode with
    | Builder.Materialize -> Some (Builder.finalize b)
    | Builder.Count_only | Builder.Direct -> None
  in
  {
    builder = b;
    circuit;
    packed = None;
    output;
    trace_repr;
    layout;
    schedule = Level_schedule.direct ~l;
    tau;
  }

let encode_input built m =
  let input = Array.make (Encode.total_wires built.layout) false in
  Encode.write built.layout m input;
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
            invalid_arg "Trace_circuit: circuit was built in Count_only mode"
      in
      built.packed <- Some p;
      p

(* As in [Matmul_circuit]: the reference leg of a Materialize build
   reads the builder's own circuit, never the packed compiler's. *)
let simulate ?(engine = Simulator.Packed) built m =
  let inputs = encode_input built m in
  match (engine, built.circuit) with
  | Simulator.Reference, Some c -> Simulator.run c inputs
  | Simulator.Reference, None -> Simulator.run (Packed.circuit (pack built)) inputs
  | Simulator.Packed, _ -> Packed.run (pack built) inputs

let run ?engine built m =
  let r = simulate ?engine built m in
  r.Simulator.outputs.(0)

let run_batch built ms =
  let br = Packed.run_batch (pack built) (Array.map (encode_input built) ms) in
  Array.init (Array.length ms) (fun lane -> (Packed.batch_outputs br ~lane).(0))

let trace_value ?engine built m =
  let r = simulate ?engine built m in
  Repr.eval_signed (Simulator.value r) built.trace_repr

let reference m = Matrix.trace (Matrix.pow m 3)
let stats built = Builder.stats built.builder
