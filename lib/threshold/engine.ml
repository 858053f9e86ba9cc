type cache = (Circuit.t, Packed.t) Tcmm_util.Lru.t

let create_cache ?(capacity = 16) () =
  Tcmm_util.Lru.create ~capacity ~equal:( == ) ()

(* The drivers in lib/core all share one keyed cache, so a workload that
   alternates between several built circuits keeps every compiled form
   live (up to the capacity) instead of recompiling on each switch. *)
let shared_cache = lazy (create_cache ~capacity:32 ())
let shared () = Lazy.force shared_cache

let packed cache c =
  Tcmm_util.Lru.find_or_add cache c ~create:(fun () -> Packed.of_circuit c)

let stats = Tcmm_util.Lru.stats

let run ?(engine = Simulator.Packed) cache c inputs =
  match engine with
  | Simulator.Reference -> Simulator.run c inputs
  | Simulator.Packed -> Packed.run (packed cache c) inputs

let run_batch cache c batch = Packed.run_batch (packed cache c) batch
