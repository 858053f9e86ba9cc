type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

type ('k, 'v) t = {
  capacity : int;
  mutable items : ('k * 'v) list;  (* most-recently-used first *)
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  { capacity; items = []; size = 0; hits = 0; misses = 0; evictions = 0 }

(* Splits out the entry for [k], if present. *)
let take t k =
  let rec go acc = function
    | [] -> None
    | ((k', _) as entry) :: rest when k = k' ->
        Some (entry, List.rev_append acc rest)
    | entry :: rest -> go (entry :: acc) rest
  in
  go [] t.items

let find t k =
  match take t k with
  | Some ((_, v) as entry, rest) ->
      t.hits <- t.hits + 1;
      t.items <- entry :: rest;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

(* Drops the least-recently-used entry; [t.items] must be non-empty. *)
let evict_last t =
  t.items <- List.filteri (fun i _ -> i < t.size - 1) t.items;
  t.size <- t.size - 1;
  t.evictions <- t.evictions + 1

let insert t k v =
  if t.size >= t.capacity then evict_last t;
  t.items <- (k, v) :: t.items;
  t.size <- t.size + 1

let find_or_add t k ~create =
  match find t k with
  | Some v -> v
  | None ->
      let v = create () in
      insert t k v;
      v

let add t k v =
  match take t k with
  | Some (_, rest) -> t.items <- (k, v) :: rest
  | None -> insert t k v

let mem t k = List.exists (fun (k', _) -> k = k') t.items

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    size = t.size;
    capacity = t.capacity;
  }

let clear t =
  t.items <- [];
  t.size <- 0

let to_list t = t.items
