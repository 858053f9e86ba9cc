module F = Tcmm_fastmm
module Prng = Tcmm_util.Prng

type kind = Trace | Matmul | Conv

type t = {
  kind : kind;
  algo : string;
  schedule : string;
  d : int;
  n : int;
  entry_bits : int;
  signed : bool;
  tau : int;
  seed : int;
  flips : (int * int) list list;
}

let kind_name = function Trace -> "trace" | Matmul -> "matmul" | Conv -> "conv"

let kind_of_name = function
  | "trace" -> Ok Trace
  | "matmul" -> Ok Matmul
  | "conv" -> Ok Conv
  | s -> Error (Printf.sprintf "unknown case kind %S" s)

(* Flip batches as "0-1,2-3;1-2": batches ';'-separated, pairs within a
   batch ','-separated, one pair "i-j". *)
let flips_to_string flips =
  String.concat ";"
    (List.map
       (fun batch ->
         String.concat ","
           (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) batch))
       flips)

let flips_of_string s =
  let ( let* ) = Result.bind in
  let pair p =
    match String.index_opt p '-' with
    | None -> Error (Printf.sprintf "malformed flip %S" p)
    | Some k -> (
        let i = String.sub p 0 k
        and j = String.sub p (k + 1) (String.length p - k - 1) in
        match (int_of_string_opt i, int_of_string_opt j) with
        | Some i, Some j when i >= 0 && j >= 0 -> Ok (i, j)
        | _ -> Error (Printf.sprintf "malformed flip %S" p))
  in
  let batch b =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* f = pair p in
        Ok (f :: acc))
      (Ok [])
      (String.split_on_char ',' b)
    |> Result.map List.rev
  in
  if s = "" then Ok []
  else
    List.fold_left
      (fun acc b ->
        let* acc = acc in
        let* batch = batch b in
        Ok (batch :: acc))
      (Ok [])
      (String.split_on_char ';' s)
    |> Result.map List.rev

let pp ppf c =
  Format.fprintf ppf "%s/%s/%s d=%d n=%d bits=%d%s tau=%d seed=%d%s"
    (kind_name c.kind) c.algo c.schedule c.d c.n c.entry_bits
    (if c.signed then " signed" else "")
    c.tau c.seed
    (if c.flips = [] then "" else " flips=" ^ flips_to_string c.flips)

let build_key c =
  Printf.sprintf "%s|%s|%s|%d|%d|%d|%b|%d" (kind_name c.kind) c.algo
    c.schedule c.d c.n c.entry_bits c.signed
    (match c.kind with Trace -> c.tau | Matmul | Conv -> 0)

let algo_of_name name =
  match F.Instances.find name with Ok a -> a | Error msg -> invalid_arg msg

let resolve_schedule c =
  Tcmm.Level_schedule.resolve ~algo:(algo_of_name c.algo) ~name:c.schedule ~d:c.d
    ~n:c.n

let matrix c ~index =
  let rng = Prng.create ~seed:c.seed in
  (* Skip ahead deterministically so A and B are independent draws. *)
  let rng = ref rng in
  for _ = 1 to index do
    rng := Prng.split !rng
  done;
  let hi = (1 lsl c.entry_bits) - 1 in
  let lo = if c.signed then -hi else 0 in
  F.Matrix.random !rng ~rows:c.n ~cols:c.n ~lo ~hi

(* A distinct seed offset keeps the graph draw independent of the
   matrix stream above: the same case can use both. *)
let graph c =
  let rng = Prng.create ~seed:(c.seed + 0x9e3779) in
  Tcmm_graph.Generate.erdos_renyi rng ~n:c.n ~p:0.4

(* The conv leg's workload, scaled so the im2col operands fit the
   case's [n x n] circuit: a single-channel [side x side] image and two
   2x2 kernels give P = (side - 1)^2 patches and Q = 4 patch values, so
   the largest admissible side is [isqrt n + 1] (and [n >= 4] covers
   Q). *)
let conv_q = 2

let conv_job c =
  if c.n < 4 then invalid_arg "Case.conv_job: conv cases need n >= 4";
  let side =
    let rec grow s = if (s + 1) * (s + 1) <= c.n then grow (s + 1) else s in
    grow 1 + 1
  in
  let hi = (1 lsl c.entry_bits) - 1 in
  let lo = if c.signed then -hi else 0 in
  let rng = Prng.create ~seed:(c.seed + 0x517cc1) in
  let image =
    Tcmm_convnet.Image.random rng ~channels:1 ~height:side ~width:side ~lo ~hi
  in
  let rng = Prng.split rng in
  let k0 =
    Tcmm_convnet.Image.random rng ~channels:1 ~height:conv_q ~width:conv_q ~lo
      ~hi
  in
  let rng = Prng.split rng in
  let k1 =
    Tcmm_convnet.Image.random rng ~channels:1 ~height:conv_q ~width:conv_q ~lo
      ~hi
  in
  ({ Tcmm_convnet.Im2col.q = conv_q; stride = 1 }, image, [| k0; k1 |])

let to_string c =
  String.concat "\n"
    ([
       "tcmm-case 1";
       "kind " ^ kind_name c.kind;
       "algo " ^ c.algo;
       "schedule " ^ c.schedule;
       "d " ^ string_of_int c.d;
       "n " ^ string_of_int c.n;
       "entry_bits " ^ string_of_int c.entry_bits;
       "signed " ^ string_of_bool c.signed;
       "tau " ^ string_of_int c.tau;
       "seed " ^ string_of_int c.seed;
     ]
    (* Written only when present, so pre-incremental corpus files are
       reproduced byte-for-byte. *)
    @ (if c.flips = [] then [] else [ "flips " ^ flips_to_string c.flips ])
    @ [ "" ])

let known_fields =
  [ "kind"; "algo"; "schedule"; "d"; "n"; "entry_bits"; "signed"; "tau";
    "seed"; "flips" ]

let of_string s =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> Error "empty case"
  | header :: fields ->
      let* () =
        if header = "tcmm-case 1" then Ok ()
        else Error (Printf.sprintf "bad case header %S" header)
      in
      let* pairs =
        List.fold_left
          (fun acc line ->
            let* acc = acc in
            match String.index_opt line ' ' with
            | None -> Error (Printf.sprintf "malformed case line %S" line)
            | Some i ->
                let k = String.sub line 0 i in
                let v = String.sub line (i + 1) (String.length line - i - 1) in
                (* An ignored key would replay a different case than the
                   file describes (a misspelt [flips] drops the flips). *)
                if List.mem k known_fields then Ok ((k, String.trim v) :: acc)
                else Error (Printf.sprintf "unknown case field %S" k))
          (Ok []) fields
      in
      let field k =
        match List.assoc_opt k pairs with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "case is missing field %S" k)
      in
      let int_field k =
        let* v = field k in
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "field %s: not an integer: %S" k v)
      in
      let bool_field k =
        let* v = field k in
        match bool_of_string_opt v with
        | Some b -> Ok b
        | None -> Error (Printf.sprintf "field %s: not a boolean: %S" k v)
      in
      let* kind_s = field "kind" in
      let* kind = kind_of_name kind_s in
      let* algo = field "algo" in
      let* schedule = field "schedule" in
      let* d = int_field "d" in
      let* n = int_field "n" in
      let* entry_bits = int_field "entry_bits" in
      let* signed = bool_field "signed" in
      let* tau = int_field "tau" in
      let* seed = int_field "seed" in
      let* flips =
        match List.assoc_opt "flips" pairs with
        | None -> Ok []
        | Some v -> flips_of_string v
      in
      Ok
        {
          kind;
          algo;
          schedule;
          d;
          n;
          entry_bits;
          signed;
          tau;
          seed;
          flips;
        }

let equal a b = a = b
