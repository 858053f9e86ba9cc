let latency_bounds =
  [| 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 1000. |]

type t = {
  max_lanes : int;
  worker_id : int;
  mutable connections_accepted : int;
  mutable connections_active : int;
  mutable requests_total : int;
  mutable run_requests : int;
  mutable errors : int;
  mutable batches : int;
  mutable lanes : int;
  occupancy : int array;
  latency_counts : int array;
  mutable latency_sum : float;  (* ms *)
  mutable latency_count : int;
  mutable firings_total : int;
  mutable eval_seconds : float;
  mutable build_seconds : float;
  mutable accepted : int;
  mutable shed : int;
  mutable deadline_expired : int;
  mutable eval_failures : int;
  mutable slow_client_drops : int;
  mutable kernel_gates : int;
  mutable fallback_gates : int;
  mutable sessions_opened : int;
  mutable sessions_active : int;
  mutable sessions_evicted : int;
  mutable session_updates : int;
  mutable session_dirty_gates : int;
  mutable session_gates : int;
}

let create ?(worker_id = 0) ~max_lanes () =
  {
    max_lanes;
    worker_id;
    connections_accepted = 0;
    connections_active = 0;
    requests_total = 0;
    run_requests = 0;
    errors = 0;
    batches = 0;
    lanes = 0;
    occupancy = Array.make max_lanes 0;
    latency_counts = Array.make (Array.length latency_bounds + 1) 0;
    latency_sum = 0.;
    latency_count = 0;
    firings_total = 0;
    eval_seconds = 0.;
    build_seconds = 0.;
    accepted = 0;
    shed = 0;
    deadline_expired = 0;
    eval_failures = 0;
    slow_client_drops = 0;
    kernel_gates = 0;
    fallback_gates = 0;
    sessions_opened = 0;
    sessions_active = 0;
    sessions_evicted = 0;
    session_updates = 0;
    session_dirty_gates = 0;
    session_gates = 0;
  }

let connection_opened t =
  t.connections_accepted <- t.connections_accepted + 1;
  t.connections_active <- t.connections_active + 1

let connection_closed t = t.connections_active <- t.connections_active - 1
let request t = t.requests_total <- t.requests_total + 1
let error t = t.errors <- t.errors + 1
let observe_build t ~seconds = t.build_seconds <- t.build_seconds +. seconds

let observe_coverage t ~kernel_gates ~fallback_gates =
  t.kernel_gates <- t.kernel_gates + kernel_gates;
  t.fallback_gates <- t.fallback_gates + fallback_gates

let observe_batch t ~lanes ~firings ~seconds =
  t.batches <- t.batches + 1;
  t.lanes <- t.lanes + lanes;
  t.run_requests <- t.run_requests + lanes;
  let slot = max 1 (min lanes t.max_lanes) - 1 in
  t.occupancy.(slot) <- t.occupancy.(slot) + 1;
  t.firings_total <- t.firings_total + firings;
  t.eval_seconds <- t.eval_seconds +. seconds

let session_opened t =
  t.sessions_opened <- t.sessions_opened + 1;
  t.sessions_active <- t.sessions_active + 1

let session_closed t = t.sessions_active <- t.sessions_active - 1

let session_evicted t =
  t.sessions_evicted <- t.sessions_evicted + 1;
  t.sessions_active <- t.sessions_active - 1

let session_update t ~dirty_gates ~gates =
  t.session_updates <- t.session_updates + 1;
  t.session_dirty_gates <- t.session_dirty_gates + dirty_gates;
  t.session_gates <- t.session_gates + gates

let accepted t = t.accepted <- t.accepted + 1
let shed t = t.shed <- t.shed + 1
let deadline_expired t = t.deadline_expired <- t.deadline_expired + 1
let eval_failure t = t.eval_failures <- t.eval_failures + 1
let slow_client_drop t = t.slow_client_drops <- t.slow_client_drops + 1

let observe_latency t ~seconds =
  let ms = seconds *. 1000. in
  let rec bucket i =
    if i >= Array.length latency_bounds then i
    else if ms <= latency_bounds.(i) then i
    else bucket (i + 1)
  in
  let b = bucket 0 in
  t.latency_counts.(b) <- t.latency_counts.(b) + 1;
  t.latency_sum <- t.latency_sum +. ms;
  t.latency_count <- t.latency_count + 1

let snapshot t ~uptime_seconds ~cache ~store : Protocol.metrics =
  let store_loads, store_saves, store_invalid = store in
  {
    Protocol.uptime_seconds;
    connections_accepted = t.connections_accepted;
    connections_active = t.connections_active;
    requests_total = t.requests_total;
    run_requests = t.run_requests;
    errors = t.errors;
    batches = t.batches;
    lanes = t.lanes;
    max_lanes = t.max_lanes;
    occupancy = Array.copy t.occupancy;
    latency_ms =
      {
        Protocol.bounds = Array.copy latency_bounds;
        counts = Array.copy t.latency_counts;
        sum = t.latency_sum;
        count = t.latency_count;
      };
    firings_total = t.firings_total;
    eval_seconds = t.eval_seconds;
    build_seconds = t.build_seconds;
    cache;
    accepted = t.accepted;
    shed = t.shed;
    deadline_expired = t.deadline_expired;
    eval_failures = t.eval_failures;
    slow_client_drops = t.slow_client_drops;
    kernel_gates = t.kernel_gates;
    fallback_gates = t.fallback_gates;
    store_loads;
    store_saves;
    store_invalid;
    worker_id = t.worker_id;
    sessions_opened = t.sessions_opened;
    sessions_active = t.sessions_active;
    sessions_evicted = t.sessions_evicted;
    session_updates = t.session_updates;
    session_dirty_gates = t.session_dirty_gates;
    session_gates = t.session_gates;
  }
