open Tcmm_convnet
module S = Tcmm_test_support.Support
module Matrix = Tcmm_fastmm.Matrix
module Prng = Tcmm_util.Prng

(* ------------------------------------------------------------------ *)
(* Image                                                              *)
(* ------------------------------------------------------------------ *)

let test_image_basic () =
  let img = Image.init ~channels:2 ~height:3 ~width:4 (fun c y x -> (100 * c) + (10 * y) + x) in
  S.check_int "get" 112 (Image.get img ~c:1 ~y:1 ~x:2);
  Image.set img ~c:0 ~y:2 ~x:3 (-5);
  S.check_int "set/get" (-5) (Image.get img ~c:0 ~y:2 ~x:3);
  (try
     ignore (Image.get img ~c:2 ~y:0 ~x:0);
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ());
  try
    ignore (Image.create ~channels:0 ~height:1 ~width:1);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_image_equal () =
  let a = Image.init ~channels:1 ~height:2 ~width:2 (fun _ y x -> y + x) in
  let b = Image.init ~channels:1 ~height:2 ~width:2 (fun _ y x -> y + x) in
  S.check_bool "equal" true (Image.equal a b);
  Image.set b ~c:0 ~y:0 ~x:0 9;
  S.check_bool "unequal" false (Image.equal a b)

(* ------------------------------------------------------------------ *)
(* Im2col                                                             *)
(* ------------------------------------------------------------------ *)

let test_output_dims () =
  let img = Image.create ~channels:1 ~height:5 ~width:7 in
  Alcotest.(check (pair int int)) "stride 1" (3, 5)
    (Im2col.output_dims { Im2col.q = 3; stride = 1 } img);
  Alcotest.(check (pair int int)) "stride 2" (2, 3)
    (Im2col.output_dims { Im2col.q = 3; stride = 2 } img);
  (try
     ignore (Im2col.output_dims { Im2col.q = 8; stride = 1 } img);
     Alcotest.fail "expected invalid_arg (kernel too big)"
   with Invalid_argument _ -> ());
  try
    ignore (Im2col.output_dims { Im2col.q = 2; stride = 0 } img);
    Alcotest.fail "expected invalid_arg (stride)"
  with Invalid_argument _ -> ()

let test_patch_matrix_shape_and_values () =
  let img = Image.init ~channels:2 ~height:3 ~width:3 (fun c y x -> (100 * c) + (10 * y) + x) in
  let spec = { Im2col.q = 2; stride = 1 } in
  let p = Im2col.patch_matrix spec img in
  S.check_int "rows = P" 4 (Matrix.rows p);
  S.check_int "cols = Q" 8 (Matrix.cols p);
  (* Patch (0,0), channel 0 values: 0, 1, 10, 11; then channel 1. *)
  S.check_int "first value" 0 (Matrix.get p 0 0);
  S.check_int "c0 (1,1)" 11 (Matrix.get p 0 3);
  S.check_int "c1 first" 100 (Matrix.get p 0 4);
  (* Patch (1,1) starts at y=1,x=1: c0 values 11, 12, 21, 22. *)
  S.check_int "patch 3 value" 11 (Matrix.get p 3 0)

let test_kernel_matrix () =
  let k0 = Image.init ~channels:1 ~height:2 ~width:2 (fun _ y x -> (10 * y) + x) in
  let k1 = Image.init ~channels:1 ~height:2 ~width:2 (fun _ y x -> -((10 * y) + x)) in
  let km = Im2col.kernel_matrix [| k0; k1 |] in
  S.check_int "rows = Q" 4 (Matrix.rows km);
  S.check_int "cols = K" 2 (Matrix.cols km);
  S.check_int "k0 (1,1)" 11 (Matrix.get km 3 0);
  S.check_int "k1 (0,1)" (-1) (Matrix.get km 1 1);
  (try
     ignore (Im2col.kernel_matrix [||]);
     Alcotest.fail "expected invalid_arg (empty)"
   with Invalid_argument _ -> ());
  let tall = Image.create ~channels:1 ~height:3 ~width:2 in
  try
    ignore (Im2col.kernel_matrix [| tall |]);
    Alcotest.fail "expected invalid_arg (non-square)"
  with Invalid_argument _ -> ()

let test_embed () =
  let m = Matrix.of_rows [| [| 1; 2 |] |] in
  let e = Im2col.embed m ~n:4 in
  S.check_int "copied" 2 (Matrix.get e 0 1);
  S.check_int "padding" 0 (Matrix.get e 3 3);
  try
    ignore (Im2col.embed (Matrix.create ~rows:5 ~cols:2) ~n:4);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Conv                                                               *)
(* ------------------------------------------------------------------ *)

let random_setup seed ~channels ~size ~q ~stride ~kernels =
  let rng = Prng.create ~seed in
  let img = Image.random rng ~channels ~height:size ~width:size ~lo:(-3) ~hi:3 in
  let ks =
    Array.init kernels (fun _ -> Image.random rng ~channels ~height:q ~width:q ~lo:(-2) ~hi:2)
  in
  ({ Im2col.q; stride }, img, ks)

let test_direct_known_edge_detector () =
  (* 1-channel 3x3 image, 2x2 kernel [[1;-1];[1;-1]]: horizontal contrast. *)
  let img = Image.init ~channels:1 ~height:3 ~width:3 (fun _ _ x -> x) in
  let ker = Image.init ~channels:1 ~height:2 ~width:2 (fun _ _ x -> if x = 0 then 1 else -1) in
  let scores = Conv.direct { Im2col.q = 2; stride = 1 } img [| ker |] in
  (* Every patch has columns differing by 1 twice: score -2. *)
  Array.iter
    (Array.iter (fun v -> S.check_int "uniform gradient" (-2) v))
    scores.(0)

let test_via_matmul_matches_direct () =
  List.iter
    (fun (seed, channels, size, q, stride, kernels) ->
      let spec, img, ks = random_setup seed ~channels ~size ~q ~stride ~kernels in
      let d = Conv.direct spec img ks in
      let m = Conv.via_matmul spec img ks in
      S.check_bool
        (Printf.sprintf "seed=%d ch=%d n=%d q=%d s=%d k=%d" seed channels size q stride kernels)
        true (d = m))
    [
      (1, 1, 4, 2, 1, 1);
      (2, 2, 5, 3, 1, 2);
      (3, 3, 6, 2, 2, 4);
      (4, 1, 8, 3, 2, 3);
      (5, 2, 7, 3, 2, 2);
    ]

let test_circuit_size () =
  let spec, img, ks = random_setup 6 ~channels:1 ~size:5 ~q:2 ~stride:1 ~kernels:2 in
  (* P = 16, Q = 4, K = 2 -> need 16 -> T^l = 16 for T = 2. *)
  S.check_int "pow2 envelope" 16 (Conv.circuit_size spec img ks ~t_dim:2);
  S.check_int "pow3 envelope" 27 (Conv.circuit_size spec img ks ~t_dim:3)

(* ------------------------------------------------------------------ *)
(* End-to-end: conv layer through the threshold circuit               *)
(* ------------------------------------------------------------------ *)

let test_conv_through_circuit () =
  let spec, img, ks = random_setup 7 ~channels:1 ~size:4 ~q:2 ~stride:2 ~kernels:2 in
  (* P = 4, Q = 4, K = 2 -> 4x4 circuit. *)
  let n = Conv.circuit_size spec img ks ~t_dim:2 in
  S.check_int "n = 4" 4 n;
  let a = Im2col.embed (Im2col.patch_matrix spec img) ~n in
  let b = Im2col.embed (Im2col.kernel_matrix ks) ~n in
  let built =
    Tcmm.Matmul_circuit.build ~algo:Tcmm_fastmm.Instances.strassen
      ~schedule:(Tcmm.Level_schedule.full ~l:2) ~signed_inputs:true ~entry_bits:3 ~n ()
  in
  let c = Tcmm.Matmul_circuit.run built ~a ~b in
  let scores = Conv.direct spec img ks in
  let oh, ow = Im2col.output_dims spec img in
  for k = 0 to 1 do
    for py = 0 to oh - 1 do
      for px = 0 to ow - 1 do
        S.check_int
          (Printf.sprintf "score k=%d (%d,%d)" k py px)
          scores.(k).(py).(px)
          (Matrix.get c ((py * ow) + px) k)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Inference (fixed-weight in-circuit networks)                       *)
(* ------------------------------------------------------------------ *)

open Tcmm_threshold

let image_values (img : Image.t) =
  Array.init img.Image.channels (fun c ->
      Array.init img.Image.height (fun y ->
          Array.init img.Image.width (fun x -> Image.get img ~c ~y ~x)))

let test_inference_conv_matches_reference () =
  let rng = Prng.create ~seed:71 in
  List.iter
    (fun (channels, size, q, stride, k, signed) ->
      let img =
        Image.random rng ~channels ~height:size ~width:size
          ~lo:(if signed then -3 else 0)
          ~hi:3
      in
      let kernels =
        Array.init k (fun _ -> Image.random rng ~channels ~height:q ~width:q ~lo:(-2) ~hi:2)
      in
      let spec = { Im2col.q; stride } in
      let b = Builder.create () in
      let fm, write = Inference.input_image b ~channels ~height:size ~width:size ~entry_bits:2 ~signed in
      let out = Inference.conv_fixed b ~spec ~kernels fm in
      let c = Builder.finalize b in
      let input = Array.make (Circuit.num_wires c - Circuit.num_gates c) false in
      let input = Array.sub input 0 c.Circuit.num_inputs in
      write img input;
      let r = Simulator.run ~check:true c input in
      let got = Inference.read_feature_map (Simulator.value r) out in
      let expect = Inference.reference_conv spec kernels (image_values img) in
      S.check_bool
        (Printf.sprintf "conv ch=%d n=%d q=%d s=%d k=%d" channels size q stride k)
        true (got = expect))
    [ (1, 4, 2, 1, 2, false); (2, 4, 2, 2, 3, true); (1, 5, 3, 1, 1, true) ]

let test_inference_relu () =
  let rng = Prng.create ~seed:72 in
  let img = Image.random rng ~channels:1 ~height:4 ~width:4 ~lo:(-3) ~hi:3 in
  let ker = Image.random rng ~channels:1 ~height:2 ~width:2 ~lo:(-2) ~hi:2 in
  let spec = { Im2col.q = 2; stride = 1 } in
  let b = Builder.create () in
  let fm, write = Inference.input_image b ~channels:1 ~height:4 ~width:4 ~entry_bits:2 ~signed:true in
  let conv = Inference.conv_fixed b ~spec ~kernels:[| ker |] fm in
  let rectified = Inference.relu b conv in
  let c = Builder.finalize b in
  let input = Array.make c.Circuit.num_inputs false in
  write img input;
  let r = Simulator.run ~check:true c input in
  let got = Inference.read_feature_map (Simulator.value r) rectified in
  let expect =
    Inference.reference_relu (Inference.reference_conv spec [| ker |] (image_values img))
  in
  S.check_bool "relu(conv)" true (got = expect);
  (* ReLU outputs carry no negative part. *)
  Array.iter
    (Array.iter
       (Array.iter (fun (sb : Tcmm_arith.Repr.signed_bits) ->
            S.check_int "nonneg encoding" 0 (Array.length sb.Tcmm_arith.Repr.neg_bits))))
    rectified

let test_inference_relu_identity_on_unsigned () =
  (* An unsigned feature map passes through relu with zero gates. *)
  let b = Builder.create () in
  let fm, _ = Inference.input_image b ~channels:1 ~height:2 ~width:2 ~entry_bits:2 ~signed:false in
  let before = Builder.num_gates b in
  let _ = Inference.relu b fm in
  S.check_int "no gates" before (Builder.num_gates b)

let test_inference_two_layer_network () =
  let rng = Prng.create ~seed:73 in
  let img = Image.random rng ~channels:1 ~height:6 ~width:6 ~lo:0 ~hi:3 in
  let k1 = Array.init 2 (fun _ -> Image.random rng ~channels:1 ~height:3 ~width:3 ~lo:(-2) ~hi:2) in
  let k2 = Array.init 2 (fun _ -> Image.random rng ~channels:2 ~height:2 ~width:2 ~lo:(-1) ~hi:1) in
  let s1 = { Im2col.q = 3; stride = 1 } and s2 = { Im2col.q = 2; stride = 2 } in
  let b = Builder.create () in
  let fm, write = Inference.input_image b ~channels:1 ~height:6 ~width:6 ~entry_bits:2 ~signed:false in
  let layer1 = Inference.relu b (Inference.conv_fixed b ~spec:s1 ~kernels:k1 fm) in
  let layer2 = Inference.conv_fixed b ~spec:s2 ~kernels:k2 layer1 in
  let c = Builder.finalize b in
  let input = Array.make c.Circuit.num_inputs false in
  write img input;
  let r = Simulator.run ~check:true c input in
  let got = Inference.read_feature_map (Simulator.value r) layer2 in
  let expect =
    Inference.reference_conv s2 k2
      (Inference.reference_relu (Inference.reference_conv s1 k1 (image_values img)))
  in
  S.check_bool "two-layer network" true (got = expect);
  (* The whole network is constant-depth. *)
  let st = Circuit.stats c in
  S.check_bool "depth <= 10" true (st.Stats.depth <= 10)

let test_inference_bias () =
  let rng = Prng.create ~seed:74 in
  let img = Image.random rng ~channels:1 ~height:4 ~width:4 ~lo:(-3) ~hi:3 in
  let kernels =
    Array.init 3 (fun _ -> Image.random rng ~channels:1 ~height:2 ~width:2 ~lo:(-2) ~hi:2)
  in
  let bias = [| 5; -7; 0 |] in
  let spec = { Im2col.q = 2; stride = 1 } in
  let b = Builder.create () in
  let fm, write =
    Inference.input_image b ~channels:1 ~height:4 ~width:4 ~entry_bits:2 ~signed:true
  in
  let out = Inference.conv_fixed ~bias b ~spec ~kernels fm in
  let c = Builder.finalize b in
  let input = Array.make c.Circuit.num_inputs false in
  write img input;
  let r = Simulator.run ~check:true c input in
  let got = Inference.read_feature_map (Simulator.value r) out in
  let expect = Inference.reference_conv ~bias spec kernels (image_values img) in
  S.check_bool "biased conv" true (got = expect);
  (* A zero bias array must behave exactly like no bias. *)
  let b2 = Builder.create () in
  let fm2, _ =
    Inference.input_image b2 ~channels:1 ~height:4 ~width:4 ~entry_bits:2 ~signed:true
  in
  let before = Builder.num_gates b2 in
  let _ = Inference.conv_fixed ~bias:[| 0; 0; 0 |] b2 ~spec ~kernels fm2 in
  let all_zero_gates = Builder.num_gates b2 - before in
  let b3 = Builder.create () in
  let fm3, _ =
    Inference.input_image b3 ~channels:1 ~height:4 ~width:4 ~entry_bits:2 ~signed:true
  in
  let before3 = Builder.num_gates b3 in
  let _ = Inference.conv_fixed b3 ~spec ~kernels fm3 in
  S.check_int "zero bias = no bias" (Builder.num_gates b3 - before3) all_zero_gates;
  (* Wrong bias length rejected. *)
  let b4 = Builder.create () in
  let fm4, _ =
    Inference.input_image b4 ~channels:1 ~height:4 ~width:4 ~entry_bits:1 ~signed:false
  in
  try
    ignore (Inference.conv_fixed ~bias:[| 1 |] b4 ~spec ~kernels fm4);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_inference_max_pool () =
  let rng = Prng.create ~seed:75 in
  let img = Image.random rng ~channels:2 ~height:4 ~width:4 ~lo:0 ~hi:7 in
  let b = Builder.create () in
  let fm, write =
    Inference.input_image b ~channels:2 ~height:4 ~width:4 ~entry_bits:3 ~signed:false
  in
  let pooled = Inference.max_pool b ~size:2 fm in
  let c = Builder.finalize b in
  let input = Array.make c.Circuit.num_inputs false in
  write img input;
  let r = Simulator.run ~check:true c input in
  let got = Inference.read_feature_map (Simulator.value r) pooled in
  let expect = Inference.reference_max_pool ~size:2 (image_values img) in
  S.check_bool "2x2 max pool" true (got = expect);
  (* Rejections. *)
  let b2 = Builder.create () in
  let fm2, _ =
    Inference.input_image b2 ~channels:1 ~height:3 ~width:3 ~entry_bits:1 ~signed:false
  in
  (try
     ignore (Inference.max_pool b2 ~size:2 fm2);
     Alcotest.fail "expected invalid_arg (divisibility)"
   with Invalid_argument _ -> ());
  let b3 = Builder.create () in
  let fm3, _ =
    Inference.input_image b3 ~channels:1 ~height:2 ~width:2 ~entry_bits:1 ~signed:true
  in
  try
    ignore (Inference.max_pool b3 ~size:2 fm3);
    Alcotest.fail "expected invalid_arg (signed)"
  with Invalid_argument _ -> ()

let test_inference_lenet_style_pipeline () =
  (* conv -> relu -> max-pool -> conv, all in one circuit. *)
  let rng = Prng.create ~seed:76 in
  let img = Image.random rng ~channels:1 ~height:8 ~width:8 ~lo:0 ~hi:3 in
  let k1 =
    Array.init 2 (fun _ -> Image.random rng ~channels:1 ~height:3 ~width:3 ~lo:(-2) ~hi:2)
  in
  let bias = [| 3; -2 |] in
  let k2 =
    Array.init 2 (fun _ -> Image.random rng ~channels:2 ~height:2 ~width:2 ~lo:(-1) ~hi:1)
  in
  let s1 = { Im2col.q = 3; stride = 1 } and s2 = { Im2col.q = 2; stride = 1 } in
  let b = Builder.create () in
  let fm, write =
    Inference.input_image b ~channels:1 ~height:8 ~width:8 ~entry_bits:2 ~signed:false
  in
  let l1 = Inference.relu b (Inference.conv_fixed ~bias b ~spec:s1 ~kernels:k1 fm) in
  let l2 = Inference.max_pool b ~size:2 l1 in
  let l3 = Inference.conv_fixed b ~spec:s2 ~kernels:k2 l2 in
  let c = Builder.finalize b in
  let input = Array.make c.Circuit.num_inputs false in
  write img input;
  let r = Simulator.run ~check:true c input in
  let got = Inference.read_feature_map (Simulator.value r) l3 in
  let expect =
    Inference.reference_conv s2 k2
      (Inference.reference_max_pool ~size:2
         (Inference.reference_relu
            (Inference.reference_conv ~bias s1 k1 (image_values img))))
  in
  S.check_bool "lenet-style pipeline" true (got = expect)

let test_inference_rejections () =
  let b = Builder.create () in
  let fm, _ = Inference.input_image b ~channels:2 ~height:4 ~width:4 ~entry_bits:1 ~signed:false in
  let bad_kernel = Image.create ~channels:1 ~height:2 ~width:2 in
  try
    ignore (Inference.conv_fixed b ~spec:{ Im2col.q = 2; stride = 1 } ~kernels:[| bad_kernel |] fm);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Served inference (protocol v7 Run_conv through a forked daemon)    *)
(* ------------------------------------------------------------------ *)

module P = Tcmm_server.Protocol

(* Every served score plane must be bit-identical to the direct
   convolution — across algorithms (base-2 Strassen, base-3 Laderman).
   Pipelined like a real client so the jobs coalesce into one matmul
   batch server-side.  The refusal leg puts a [kronpow = true] copy
   (the removed pass) ahead of the flat one on the same connection:
   the first must come back as an error, and the flat one behind it
   must still be answered exactly. *)
let test_served_conv_bit_identical () =
  Tcmm_check.Harness.with_loopback_server (fun cl ->
      List.iter
        (fun (label, algo, n, refusal, seed, size, kernels) ->
          let spec_c, img, ks =
            random_setup seed ~channels:1 ~size ~q:2 ~stride:1 ~kernels
          in
          let spec =
            { P.kind = P.Conv; algo; schedule = "thm45"; d = 2; n;
              entry_bits = 2; signed = true; tau = 0; kronpow = false }
          in
          let job =
            { P.cj_q = 2; cj_stride = 1; cj_image = img; cj_kernels = ks }
          in
          (* Two pipelined copies: the reply must be deterministic and
             the batcher must keep per-request framing straight. *)
          let first = if refusal then { spec with P.kronpow = true } else spec in
          Tcmm_server.Client.send cl (P.Run_conv (first, job));
          Tcmm_server.Client.send cl (P.Run_conv (spec, job));
          let expect = Conv.direct spec_c img ks in
          for i = 1 to 2 do
            match (Tcmm_server.Client.recv cl, refusal && i = 1) with
            | Ok (P.Error _), true -> ()
            | Ok _, true -> Alcotest.fail (label ^ ": kronpow job was served")
            | Ok (P.Conv_result (scores, firings)), false ->
                S.check_bool
                  (Printf.sprintf "%s reply %d bit-identical" label i)
                  true (scores = expect);
                S.check_bool
                  (Printf.sprintf "%s reply %d counted firings" label i)
                  true (firings > 0)
            | Ok (P.Error msg), false ->
                Alcotest.fail (label ^ ": server error: " ^ msg)
            | Ok _, false -> Alcotest.fail (label ^ ": unexpected response")
            | Error msg, _ -> Alcotest.fail (label ^ ": transport: " ^ msg)
          done)
        [
          ("strassen", "strassen", 16, false, 81, 4, 2);
          ("strassen-refusal", "strassen", 16, true, 82, 4, 2);
          ("laderman", "laderman", 9, false, 83, 4, 2);
        ])

let test_served_conv_rejects_oversized () =
  (* A job whose patch matrix cannot fit the spec's circuit must come
     back as a typed protocol error, not a wrong answer or a hang. *)
  Tcmm_check.Harness.with_loopback_server (fun cl ->
      let _, img, ks = random_setup 84 ~channels:1 ~size:8 ~q:2 ~stride:1 ~kernels:1 in
      let spec =
        { P.kind = P.Conv; algo = "strassen"; schedule = "thm45"; d = 2;
          n = 4; entry_bits = 2; signed = true; tau = 0; kronpow = false }
      in
      let job = { P.cj_q = 2; cj_stride = 1; cj_image = img; cj_kernels = ks } in
      match Tcmm_server.Client.request cl (P.Run_conv (spec, job)) with
      | Ok (P.Error _) -> ()
      | Ok _ -> Alcotest.fail "oversized conv job accepted"
      | Error msg -> Alcotest.fail ("transport: " ^ msg))

let () =
  Alcotest.run "tcmm_convnet"
    [
      ( "served",
        [
          Alcotest.test_case "conv bit-identical" `Slow
            test_served_conv_bit_identical;
          Alcotest.test_case "oversized job rejected" `Quick
            test_served_conv_rejects_oversized;
        ] );
      ( "image",
        [
          Alcotest.test_case "basic" `Quick test_image_basic;
          Alcotest.test_case "equal" `Quick test_image_equal;
        ] );
      ( "im2col",
        [
          Alcotest.test_case "output dims" `Quick test_output_dims;
          Alcotest.test_case "patch matrix" `Quick test_patch_matrix_shape_and_values;
          Alcotest.test_case "kernel matrix" `Quick test_kernel_matrix;
          Alcotest.test_case "embed" `Quick test_embed;
        ] );
      ( "conv",
        [
          Alcotest.test_case "edge detector" `Quick test_direct_known_edge_detector;
          Alcotest.test_case "matmul = direct" `Quick test_via_matmul_matches_direct;
          Alcotest.test_case "circuit size" `Quick test_circuit_size;
        ] );
      ( "end_to_end",
        [ Alcotest.test_case "conv through circuit" `Quick test_conv_through_circuit ] );
      ( "inference",
        [
          Alcotest.test_case "conv_fixed" `Quick test_inference_conv_matches_reference;
          Alcotest.test_case "relu" `Quick test_inference_relu;
          Alcotest.test_case "relu identity" `Quick test_inference_relu_identity_on_unsigned;
          Alcotest.test_case "two-layer network" `Quick test_inference_two_layer_network;
          Alcotest.test_case "bias" `Quick test_inference_bias;
          Alcotest.test_case "max pool" `Quick test_inference_max_pool;
          Alcotest.test_case "lenet-style pipeline" `Quick test_inference_lenet_style_pipeline;
          Alcotest.test_case "rejections" `Quick test_inference_rejections;
        ] );
    ]
