open Tcmm_threshold
open Tcmm_arith
module Matrix = Tcmm_fastmm.Matrix

type built = {
  builder : Builder.t;
  mutable packed : Packed.t option;
  output : Wire.t;
  trace_repr : Repr.signed;
  layout : Encode.t;
  schedule : Level_schedule.t;
  tau : int;
}

(* Every trace build: [leaves b ~coeffs grid] emits one leaf vector —
   called for the A side, the B side and the weighted entry sums, in
   that order — and [schedule] is what [built] records. *)
let build_internal ~mode ~templates ~signed_inputs ~with_value ~leaves
    ~schedule ~entry_bits ~tau ~n ~algo () =
  let b = Builder.create ~mode ~templates () in
  let layout = Encode.alloc b ~n ~entry_bits ~signed:signed_inputs in
  let grid = Encode.grid layout in
  let leaves_a = leaves b ~coeffs:(Sum_tree.a_coeffs algo) grid in
  let leaves_b = leaves b ~coeffs:(Sum_tree.b_coeffs algo) grid in
  let leaves_w =
    leaves b ~coeffs:(Sum_tree.w_transposed_coeffs algo)
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
  ( { builder = b; packed = None; output; trace_repr; layout; schedule; tau },
    value )

(* Lemma 4.3's level-selected sum trees. *)
let tree_leaves ?share_top ~algo ~schedule b ~coeffs grid =
  Sum_tree.compute_leaves ?share_top b ~algo ~coeffs ~schedule grid

let build ?(mode = Builder.Direct) ?(templates = true)
    ?(signed_inputs = false) ?share_top ~algo ~schedule ~entry_bits ~tau ~n
    () =
  fst
    (build_internal ~mode ~templates ~signed_inputs ~with_value:false
       ~leaves:(tree_leaves ?share_top ~algo ~schedule)
       ~schedule ~entry_bits ~tau ~n ~algo ())

let build_with_value ?(mode = Builder.Direct) ?(templates = true)
    ?(signed_inputs = false) ?share_top ~algo ~schedule ~entry_bits ~tau ~n
    () =
  match
    build_internal ~mode ~templates ~signed_inputs ~with_value:true
      ~leaves:(tree_leaves ?share_top ~algo ~schedule)
      ~schedule ~entry_bits ~tau ~n ~algo ()
  with
  | built, Some norm -> (built, norm)
  | _, None -> assert false

let build_staged ?(mode = Builder.Direct) ?(templates = true)
    ?(signed_inputs = false) ~algo ~stages ~entry_bits ~tau ~n () =
  let l = Level_schedule.height ~t_dim:algo.Tcmm_fastmm.Bilinear.t_dim ~n in
  fst
    (build_internal ~mode ~templates ~signed_inputs ~with_value:false
       ~leaves:(fun b ~coeffs grid ->
         Sum_tree.compute_leaves_staged b ~algo ~coeffs ~stages ~l grid)
       ~schedule:(Level_schedule.direct ~l) ~entry_bits ~tau ~n ~algo ())

let encode_input built m =
  let input = Array.make (Encode.total_wires built.layout) false in
  Encode.write built.layout m input;
  input

let circuit built = Builder.finalize built.builder

let pack built =
  match built.packed with
  | Some p -> p
  | None ->
      let p = Packed.of_arena (Builder.arena built.builder) in
      built.packed <- Some p;
      p

let simulate ?(engine = Simulator.Packed) built m =
  let inputs = encode_input built m in
  match engine with
  | Simulator.Reference -> Simulator.run (circuit built) inputs
  | Simulator.Packed -> Packed.run (pack built) inputs

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
