open Tcmm_threshold
open Tcmm_arith
module Matrix = Tcmm_fastmm.Matrix
module Checked = Tcmm_util.Checked

type built = {
  builder : Builder.t;
  layout_a : Encode.t;
  layout_b : Encode.t;
  c_grid : Repr.signed_bits array array;
  block : int;
  packed : Packed.t Lazy.t;
}

let round_up v ~block = (v + block - 1) / block * block

let build ?(mode = Builder.Direct) ?(templates = true)
    ?(signed_inputs = false) ?share_top ~algo ~schedule ~entry_bits ~rows ~inner
    ~cols () =
  let levels = (schedule : Level_schedule.t).Level_schedule.levels in
  let block =
    Checked.pow algo.Tcmm_fastmm.Bilinear.t_dim (levels.(Array.length levels - 1))
  in
  if rows mod block <> 0 || inner mod block <> 0 || cols mod block <> 0 then
    invalid_arg "Tiled_matmul.build: dimensions must be multiples of the block size";
  let b = Builder.create ~mode ~templates () in
  let layout_a = Encode.alloc_rect b ~rows ~cols:inner ~entry_bits ~signed:signed_inputs in
  let layout_b = Encode.alloc_rect b ~rows:inner ~cols ~entry_bits ~signed:signed_inputs in
  let bi = rows / block and bk = inner / block and bj = cols / block in
  (* Leaf scalars of every tile of A and B — each tile is computed once
     and reused by all products that need it, as in the conventional
     blocked algorithm. *)
  let leaves_a =
    Array.init bi (fun i ->
        Array.init bk (fun k ->
            Sum_tree.compute_leaves ?share_top b ~algo
              ~coeffs:(Sum_tree.a_coeffs algo) ~schedule
              (Encode.sub_grid layout_a ~row:(i * block) ~col:(k * block) ~size:block)))
  in
  let leaves_b =
    Array.init bk (fun k ->
        Array.init bj (fun j ->
            Sum_tree.compute_leaves ?share_top b ~algo
              ~coeffs:(Sum_tree.b_coeffs algo) ~schedule
              (Encode.sub_grid layout_b ~row:(k * block) ~col:(j * block) ~size:block)))
  in
  let c_grid = Array.make_matrix rows cols Repr.sbits_zero in
  for i = 0 to bi - 1 do
    for j = 0 to bj - 1 do
      (* One Theorem 4.9 tile product per k, then an entrywise sum. *)
      let contributions =
        Array.init bk (fun k ->
            let products =
              Array.init
                (Array.length leaves_a.(i).(k))
                (fun l -> Product.signed_product2 b leaves_a.(i).(k).(l) leaves_b.(k).(j).(l))
            in
            Combine_tree.combine ?share_top b ~algo ~schedule products)
      in
      for x = 0 to block - 1 do
        for y = 0 to block - 1 do
          let entry =
            if bk = 1 then contributions.(0).(x).(y)
            else
              Weighted_sum.signed_sum ?share_top b
                (Array.to_list
                   (Array.map
                      (fun c -> (1, Repr.signed_of_sbits c.(x).(y)))
                      contributions))
          in
          c_grid.((i * block) + x).((j * block) + y) <- entry
        done
      done
    done
  done;
  Array.iter
    (Array.iter (fun (sb : Repr.signed_bits) ->
         Array.iter (Builder.output b) sb.Repr.pos_bits;
         Array.iter (Builder.output b) sb.Repr.neg_bits))
    c_grid;
  { builder = b; layout_a; layout_b; c_grid; block;
    packed = lazy (Packed.of_arena (Builder.arena b)) }

let circuit built = Builder.finalize built.builder

let run ?(engine = Simulator.Packed) built ~a ~b =
  let input =
    Array.make
      (Encode.total_wires built.layout_a + Encode.total_wires built.layout_b)
      false
  in
  Encode.write built.layout_a a input;
  Encode.write built.layout_b b input;
  let r =
    match engine with
    | Simulator.Reference -> Simulator.run (circuit built) input
    | Simulator.Packed -> Packed.run (Lazy.force built.packed) input
  in
  Matrix.init
    ~rows:(Array.length built.c_grid)
    ~cols:(Array.length built.c_grid.(0))
    (fun i j -> Repr.eval_sbits (Simulator.value r) built.c_grid.(i).(j))

let stats built = Builder.stats built.builder
