open Tcmm_arith
module Bilinear = Tcmm_fastmm.Bilinear
module Matrix = Tcmm_fastmm.Matrix
module Checked = Tcmm_util.Checked

type input = Repr.signed_bits array array

let a_coeffs (algo : Bilinear.t) = algo.Bilinear.u
let b_coeffs (algo : Bilinear.t) = algo.Bilinear.v

let w_transposed_coeffs (algo : Bilinear.t) =
  Array.init algo.Bilinear.rank (fun i ->
      Array.init
        (algo.Bilinear.t_dim * algo.Bilinear.t_dim)
        (fun j -> algo.Bilinear.w.(j).(i)))

let leaf_count (algo : Bilinear.t) ~l = Checked.pow algo.Bilinear.rank l

(* For every relative multiplication path of length [delta] below a node
   whose matrix has dimension [size], the list of (coefficient, row offset,
   column offset) of the ancestor blocks that sum to the descendant's
   matrix.  Indexed by the path read as a base-r numeral (root digit most
   significant).  Total size over all paths is s^delta — equation (3). *)
let expansions ~coeffs ~t_dim ~delta ~size =
  let r = Array.length coeffs in
  let result = Array.make (Checked.pow r delta) [] in
  let rec go level path_id exp =
    if level = delta then result.(path_id) <- exp
    else begin
      let sub = size / Checked.pow t_dim (level + 1) in
      for i = 0 to r - 1 do
        let exp' =
          List.concat_map
            (fun (c, ro, co) ->
              let acc = ref [] in
              Array.iteri
                (fun j w ->
                  if w <> 0 then begin
                    let p = j / t_dim and q = j mod t_dim in
                    acc := (Checked.mul c w, ro + (p * sub), co + (q * sub)) :: !acc
                  end)
                coeffs.(i);
              List.rev !acc)
            exp
        in
        go (level + 1) ((path_id * r) + i) exp'
      done
    end
  in
  go 0 0 [ (1, 0, 0) ];
  result

let check_coeffs ~algo ~coeffs =
  let t2 = algo.Bilinear.t_dim * algo.Bilinear.t_dim in
  if Array.length coeffs <> algo.Bilinear.rank then
    invalid_arg "Sum_tree: coefficient row count must equal the rank";
  Array.iter
    (fun row ->
      if Array.length row <> t2 then
        invalid_arg "Sum_tree: coefficient row width must be T^2")
    coeffs

let compute_leaves ?share_top b ~algo ~coeffs ~schedule input =
  check_coeffs ~algo ~coeffs;
  let t_dim = algo.Bilinear.t_dim in
  let levels = (schedule : Level_schedule.t).Level_schedule.levels in
  let l_last = levels.(Array.length levels - 1) in
  let n = Array.length input in
  if n <> Checked.pow t_dim l_last then
    invalid_arg "Sum_tree.compute_leaves: input size must be T^L";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Sum_tree.compute_leaves: input must be square")
    input;
  (* Level 0: one node holding the input matrix, flattened row-major. *)
  let current =
    ref [| Array.init (n * n) (fun idx -> input.(idx / n).(idx mod n)) |]
  in
  let current_size = ref n in
  for idx = 1 to Array.length levels - 1 do
    let delta = levels.(idx) - levels.(idx - 1) in
    let size = !current_size in
    let size' = size / Checked.pow t_dim delta in
    let exps = expansions ~coeffs ~t_dim ~delta ~size in
    let children parent =
      Array.map
        (fun exp ->
          Array.init (size' * size') (fun e ->
              let x = e / size' and y = e mod size' in
              let terms =
                List.map
                  (fun (c, ro, co) ->
                    let entry = parent.(((ro + x) * size) + (co + y)) in
                    (c, Repr.signed_of_sbits entry))
                  exp
              in
              Weighted_sum.signed_sum ?share_top b terms))
        exps
    in
    (* Children of one parent share that parent's matrix; the layout
       parent-major keeps child ids equal to the base-r path value. *)
    current := Array.concat (Array.to_list (Array.map children !current));
    current_size := size'
  done;
  if !current_size <> 1 then
    invalid_arg "Sum_tree.compute_leaves: schedule does not end at the leaves";
  Array.map (fun node -> node.(0)) !current

let compute_leaves_staged b ~algo ~coeffs ~stages ~l input =
  check_coeffs ~algo ~coeffs;
  let t_dim = algo.Bilinear.t_dim in
  let n = Array.length input in
  if n <> Checked.pow t_dim l then
    invalid_arg "Sum_tree.compute_leaves_staged: input size must be T^l";
  let exps = expansions ~coeffs ~t_dim ~delta:l ~size:n in
  Array.map
    (fun exp ->
      let terms =
        List.map
          (fun (c, ro, co) -> (c, Repr.signed_of_sbits input.(ro).(co)))
          exp
      in
      Staged_sum.signed_sum b ~stages terms)
    exps

let reference_leaves ~algo ~coeffs m =
  check_coeffs ~algo ~coeffs;
  let t_dim = algo.Bilinear.t_dim in
  let acc = ref [] in
  let rec go m =
    let size = Matrix.rows m in
    if size = 1 then acc := Matrix.get m 0 0 :: !acc
    else begin
      let sub = size / t_dim in
      Array.iter
        (fun row ->
          let combined = ref (Matrix.create ~rows:sub ~cols:sub) in
          Array.iteri
            (fun j c ->
              if c <> 0 then
                let p = j / t_dim and q = j mod t_dim in
                let block =
                  Matrix.sub_block m ~row:(p * sub) ~col:(q * sub) ~rows:sub
                    ~cols:sub
                in
                combined := Matrix.add !combined (Matrix.scale c block))
            row;
          go !combined)
        coeffs
    end
  in
  go m;
  Array.of_list (List.rev !acc)
