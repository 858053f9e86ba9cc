let naive ~t_dim =
  if t_dim < 1 then invalid_arg "Instances.naive: t_dim < 1";
  let t = t_dim in
  let t2 = t * t in
  let rank = t * t * t in
  (* Multiplication index (i, k, j) |-> A_(i,k) * B_(k,j), contributing to
     C_(i,j). *)
  let u = Array.make_matrix rank t2 0 in
  let v = Array.make_matrix rank t2 0 in
  let w = Array.make_matrix t2 rank 0 in
  let m = ref 0 in
  for i = 0 to t - 1 do
    for k = 0 to t - 1 do
      for j = 0 to t - 1 do
        u.(!m).((i * t) + k) <- 1;
        v.(!m).((k * t) + j) <- 1;
        w.((i * t) + j).(!m) <- 1;
        incr m
      done
    done
  done;
  Bilinear.make ~name:(Printf.sprintf "naive-%d" t) ~t_dim:t ~u ~v ~w

(* Strassen's algorithm, coefficient-for-coefficient from Figure 1 of the
   paper.  Blocks in row-major order: A11 A12 A21 A22. *)
let strassen =
  Bilinear.make ~name:"strassen" ~t_dim:2
    ~u:
      [|
        [| 1; 0; 0; 0 |] (* M1: A11 *);
        [| 0; 0; 1; 1 |] (* M2: A21 + A22 *);
        [| 1; 0; 0; 1 |] (* M3: A11 + A22 *);
        [| 0; 0; 0; 1 |] (* M4: A22 *);
        [| 1; 1; 0; 0 |] (* M5: A11 + A12 *);
        [| -1; 0; 1; 0 |] (* M6: A21 - A11 *);
        [| 0; 1; 0; -1 |] (* M7: A12 - A22 *);
      |]
    ~v:
      [|
        [| 0; 1; 0; -1 |] (* M1: B12 - B22 *);
        [| 1; 0; 0; 0 |] (* M2: B11 *);
        [| 1; 0; 0; 1 |] (* M3: B11 + B22 *);
        [| -1; 0; 1; 0 |] (* M4: B21 - B11 *);
        [| 0; 0; 0; 1 |] (* M5: B22 *);
        [| 1; 1; 0; 0 |] (* M6: B11 + B12 *);
        [| 0; 0; 1; 1 |] (* M7: B21 + B22 *);
      |]
    ~w:
      [|
        [| 0; 0; 1; 1; -1; 0; 1 |] (* C11 = M3 + M4 - M5 + M7 *);
        [| 1; 0; 0; 0; 1; 0; 0 |] (* C12 = M1 + M5 *);
        [| 0; 1; 0; 1; 0; 0; 0 |] (* C21 = M2 + M4 *);
        [| 1; -1; 1; 0; 0; 1; 0 |] (* C22 = M1 - M2 + M3 + M6 *);
      |]

(* Winograd's 15-addition variant of Strassen.  With S1 = A21 + A22,
   S2 = S1 - A11, S3 = A11 - A21, S4 = A12 - S2 and T1 = B12 - B11,
   T2 = B22 - T1, T3 = B22 - B12, T4 = T2 - B21:
     M1 = A11 B11, M2 = A12 B21, M3 = S4 B22, M4 = A22 T4,
     M5 = S1 T1, M6 = S2 T2, M7 = S3 T3
     C11 = M1 + M2, C12 = M1 + M3 + M5 + M6,
     C21 = M1 - M4 + M6 + M7, C22 = M1 + M5 + M6 + M7. *)
let winograd =
  Bilinear.make ~name:"winograd" ~t_dim:2
    ~u:
      [|
        [| 1; 0; 0; 0 |] (* A11 *);
        [| 0; 1; 0; 0 |] (* A12 *);
        [| 1; 1; -1; -1 |] (* S4 = A11 + A12 - A21 - A22 *);
        [| 0; 0; 0; 1 |] (* A22 *);
        [| 0; 0; 1; 1 |] (* S1 = A21 + A22 *);
        [| -1; 0; 1; 1 |] (* S2 = A21 + A22 - A11 *);
        [| 1; 0; -1; 0 |] (* S3 = A11 - A21 *);
      |]
    ~v:
      [|
        [| 1; 0; 0; 0 |] (* B11 *);
        [| 0; 0; 1; 0 |] (* B21 *);
        [| 0; 0; 0; 1 |] (* B22 *);
        [| 1; -1; -1; 1 |] (* T4 = B11 - B12 - B21 + B22 *);
        [| -1; 1; 0; 0 |] (* T1 = B12 - B11 *);
        [| 1; -1; 0; 1 |] (* T2 = B11 - B12 + B22 *);
        [| 0; -1; 0; 1 |] (* T3 = B22 - B12 *);
      |]
    ~w:
      [|
        [| 1; 1; 0; 0; 0; 0; 0 |] (* C11 *);
        [| 1; 0; 1; 0; 1; 1; 0 |] (* C12 *);
        [| 1; 0; 0; -1; 0; 1; 1 |] (* C21 *);
        [| 1; 0; 0; 0; 1; 1; 1 |] (* C22 *);
      |]

(* Laderman's <3,3,3;23> algorithm (Laderman 1976), blocks row-major
   A11..A33 / B11..B33.  All 23 products below are verified exactly
   against the <3,3,3> matmul tensor by Verify.exact in the test suite;
   every U/V/W side has exactly 51 nonzero coefficients.  The table is
   symmetric under simultaneously swapping rows 2<->3 of A, columns
   2<->3 of B and rows+columns 2<->3 of C (m2<->m8, m3<->m11, m4<->m7,
   m5<->m9, m12<->m16, m13<->m17, m15<->m18, m20<->m23, m21<->m22,
   m1<->m10), which cross-checks the transcription. *)
let laderman =
  let u =
    [|
      [| 1; 1; 1; -1; -1; 0; 0; -1; -1 |] (* M1 *);
      [| 1; 0; 0; -1; 0; 0; 0; 0; 0 |] (* M2: A11 - A21 *);
      [| 0; 0; 0; 0; 1; 0; 0; 0; 0 |] (* M3: A22 *);
      [| -1; 0; 0; 1; 1; 0; 0; 0; 0 |] (* M4: -A11 + A21 + A22 *);
      [| 0; 0; 0; 1; 1; 0; 0; 0; 0 |] (* M5: A21 + A22 *);
      [| 1; 0; 0; 0; 0; 0; 0; 0; 0 |] (* M6: A11 *);
      [| -1; 0; 0; 0; 0; 0; 1; 1; 0 |] (* M7: -A11 + A31 + A32 *);
      [| -1; 0; 0; 0; 0; 0; 1; 0; 0 |] (* M8: -A11 + A31 *);
      [| 0; 0; 0; 0; 0; 0; 1; 1; 0 |] (* M9: A31 + A32 *);
      [| 1; 1; 1; 0; -1; -1; -1; -1; 0 |] (* M10 *);
      [| 0; 0; 0; 0; 0; 0; 0; 1; 0 |] (* M11: A32 *);
      [| 0; 0; -1; 0; 0; 0; 0; 1; 1 |] (* M12: -A13 + A32 + A33 *);
      [| 0; 0; 1; 0; 0; 0; 0; 0; -1 |] (* M13: A13 - A33 *);
      [| 0; 0; 1; 0; 0; 0; 0; 0; 0 |] (* M14: A13 *);
      [| 0; 0; 0; 0; 0; 0; 0; 1; 1 |] (* M15: A32 + A33 *);
      [| 0; 0; -1; 0; 1; 1; 0; 0; 0 |] (* M16: -A13 + A22 + A23 *);
      [| 0; 0; 1; 0; 0; -1; 0; 0; 0 |] (* M17: A13 - A23 *);
      [| 0; 0; 0; 0; 1; 1; 0; 0; 0 |] (* M18: A22 + A23 *);
      [| 0; 1; 0; 0; 0; 0; 0; 0; 0 |] (* M19: A12 *);
      [| 0; 0; 0; 0; 0; 1; 0; 0; 0 |] (* M20: A23 *);
      [| 0; 0; 0; 1; 0; 0; 0; 0; 0 |] (* M21: A21 *);
      [| 0; 0; 0; 0; 0; 0; 1; 0; 0 |] (* M22: A31 *);
      [| 0; 0; 0; 0; 0; 0; 0; 0; 1 |] (* M23: A33 *);
    |]
  in
  let v =
    [|
      [| 0; 0; 0; 0; 1; 0; 0; 0; 0 |] (* M1: B22 *);
      [| 0; -1; 0; 0; 1; 0; 0; 0; 0 |] (* M2: -B12 + B22 *);
      [| -1; 1; 0; 1; -1; -1; -1; 0; 1 |] (* M3 *);
      [| 1; -1; 0; 0; 1; 0; 0; 0; 0 |] (* M4: B11 - B12 + B22 *);
      [| -1; 1; 0; 0; 0; 0; 0; 0; 0 |] (* M5: -B11 + B12 *);
      [| 1; 0; 0; 0; 0; 0; 0; 0; 0 |] (* M6: B11 *);
      [| 1; 0; -1; 0; 0; 1; 0; 0; 0 |] (* M7: B11 - B13 + B23 *);
      [| 0; 0; 1; 0; 0; -1; 0; 0; 0 |] (* M8: B13 - B23 *);
      [| -1; 0; 1; 0; 0; 0; 0; 0; 0 |] (* M9: -B11 + B13 *);
      [| 0; 0; 0; 0; 0; 1; 0; 0; 0 |] (* M10: B23 *);
      [| -1; 0; 1; 1; -1; -1; -1; 1; 0 |] (* M11 *);
      [| 0; 0; 0; 0; 1; 0; 1; -1; 0 |] (* M12: B22 + B31 - B32 *);
      [| 0; 0; 0; 0; 1; 0; 0; -1; 0 |] (* M13: B22 - B32 *);
      [| 0; 0; 0; 0; 0; 0; 1; 0; 0 |] (* M14: B31 *);
      [| 0; 0; 0; 0; 0; 0; -1; 1; 0 |] (* M15: -B31 + B32 *);
      [| 0; 0; 0; 0; 0; 1; 1; 0; -1 |] (* M16: B23 + B31 - B33 *);
      [| 0; 0; 0; 0; 0; 1; 0; 0; -1 |] (* M17: B23 - B33 *);
      [| 0; 0; 0; 0; 0; 0; -1; 0; 1 |] (* M18: -B31 + B33 *);
      [| 0; 0; 0; 1; 0; 0; 0; 0; 0 |] (* M19: B21 *);
      [| 0; 0; 0; 0; 0; 0; 0; 1; 0 |] (* M20: B32 *);
      [| 0; 0; 1; 0; 0; 0; 0; 0; 0 |] (* M21: B13 *);
      [| 0; 1; 0; 0; 0; 0; 0; 0; 0 |] (* M22: B12 *);
      [| 0; 0; 0; 0; 0; 0; 0; 0; 1 |] (* M23: B33 *);
    |]
  in
  (* C entries are plain sums of products (all W coefficients are +1). *)
  let c_terms =
    [|
      [ 6; 14; 19 ] (* C11 *);
      [ 1; 4; 5; 6; 12; 14; 15 ] (* C12 *);
      [ 6; 7; 9; 10; 14; 16; 18 ] (* C13 *);
      [ 2; 3; 4; 6; 14; 16; 17 ] (* C21 *);
      [ 2; 4; 5; 6; 20 ] (* C22 *);
      [ 14; 16; 17; 18; 21 ] (* C23 *);
      [ 6; 7; 8; 11; 12; 13; 14 ] (* C31 *);
      [ 12; 13; 14; 15; 22 ] (* C32 *);
      [ 6; 7; 8; 9; 23 ] (* C33 *);
    |]
  in
  let w = Array.make_matrix 9 23 0 in
  Array.iteri (fun j ms -> List.iter (fun m -> w.(j).(m - 1) <- 1) ms) c_terms;
  Bilinear.make ~name:"laderman" ~t_dim:3 ~u ~v ~w

(* Derived generically: the hand-written Kronecker square this replaced
   is pinned equal by a regression test. *)
let strassen_squared = Bilinear.kronecker ~name:"strassen^2" strassen strassen

let all () =
  [
    naive ~t_dim:2;
    naive ~t_dim:3;
    strassen;
    winograd;
    strassen_squared;
    laderman;
  ]

let find name =
  let all = all () in
  match List.find_opt (fun a -> a.Bilinear.name = name) all with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown algorithm %S (try: %s)" name
           (String.concat ", " (List.map (fun a -> a.Bilinear.name) all)))
