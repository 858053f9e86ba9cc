type summary = {
  samples : int;
  mean_firings : float;
  min_firings : int;
  max_firings : int;
  gates : int;
  mean_level_firings : float array;
}

(* Lanes per batched traversal when measuring with the packed engine:
   a few words' worth bounds the transient per-wire word storage. *)
let batch_chunk = 248

let measure ?(engine = Simulator.Packed) c inputs =
  if inputs = [] then invalid_arg "Energy.measure: no inputs";
  let total = ref 0 and mn = ref max_int and mx = ref 0 and n = ref 0 in
  let lf_total = ref [||] in
  let record ~firings ~level_firings =
    total := !total + firings;
    mn := min !mn firings;
    mx := max !mx firings;
    if Array.length !lf_total = 0 then
      lf_total := Array.make (Array.length level_firings) 0;
    Array.iteri (fun i v -> !lf_total.(i) <- !lf_total.(i) + v) level_firings;
    incr n
  in
  (match engine with
  | Simulator.Reference ->
      List.iter
        (fun input ->
          let r = Simulator.run c input in
          record ~firings:r.Simulator.firings
            ~level_firings:r.Simulator.level_firings)
        inputs
  | Simulator.Packed ->
      let p = Packed.of_circuit c in
      let arr = Array.of_list inputs in
      let len = Array.length arr in
      let pos = ref 0 in
      while !pos < len do
        let b = min batch_chunk (len - !pos) in
        let br = Packed.run_batch p (Array.sub arr !pos b) in
        for lane = 0 to b - 1 do
          record
            ~firings:(Packed.batch_firings br ~lane)
            ~level_firings:(Packed.batch_level_firings br ~lane)
        done;
        pos := !pos + b
      done);
  let samples = !n in
  {
    samples;
    mean_firings = float_of_int !total /. float_of_int samples;
    min_firings = !mn;
    max_firings = !mx;
    gates = Circuit.num_gates c;
    mean_level_firings =
      Array.map (fun v -> float_of_int v /. float_of_int samples) !lf_total;
  }

let random_inputs rng ~num_inputs ~samples =
  List.init samples (fun _ ->
      Array.init num_inputs (fun _ -> Tcmm_util.Prng.bool rng))

let firing_fraction s =
  if s.gates = 0 then 0. else s.mean_firings /. float_of_int s.gates

let pp ppf s =
  Format.fprintf ppf "firings: mean %.1f of %d gates (%.1f%%), range [%d, %d], %d samples"
    s.mean_firings s.gates (100. *. firing_fraction s) s.min_firings s.max_firings
    s.samples
