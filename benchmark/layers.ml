(* Per-layer timings: the benchmark's own calls into each layer's public
   functions, at the workload's real key sizes (the keys of its dealer).
   Each timing is recorded as a span under the caller's parent span. *)

open Sintra

type metric = string * float * string   (* name, value, unit *)

type ctx = { tr : Tracer.t; parent : int; budget : float }

(* Median host seconds (and words) per call of [f], inside a span. *)
let timed (c : ctx) (name : string) (f : unit -> unit) : float * float =
  Tracer.span c.tr ~parent:c.parent name (fun _ -> Clock.per_call ~budget:c.budget f)

let us (c : ctx) name f : float = 1e6 *. fst (timed c name f)

let drbg = Hashes.Drbg.create ~seed:"bench-layers"

let random_below (m : Bignum.Nat.t) : Bignum.Nat.t =
  Bignum.Nat.random_below ~random_bytes:(Hashes.Drbg.random_bytes drbg) m

let bignum (c : ctx) (dealer : Dealer.t) : metric list =
  let open Bignum in
  let m = dealer.Dealer.parties.(0).Dealer.sign_sk.Crypto.Rsa.pub.Crypto.Rsa.n in
  let b1 = random_below m and e1 = random_below m in
  let b2 = random_below m and e2 = random_below m in
  let g = dealer.Dealer.group in
  let fb =
    Nat.Fixed_base.create ~base:g.Crypto.Group.g ~modulus:g.Crypto.Group.p
      ~max_bits:(Nat.numbits g.Crypto.Group.q)
  in
  let x = random_below g.Crypto.Group.q in
  let powmod_s, powmod_words = timed c "bignum.powmod" (fun () -> ignore (Nat.powmod b1 e1 m)) in
  [
    ("bignum.powmod_us", 1e6 *. powmod_s, "us");
    ("bignum.powmod2_us", us c "bignum.powmod2" (fun () -> ignore (Nat.powmod2 b1 e1 b2 e2 m)), "us");
    ("bignum.fixed_base_us", us c "bignum.fixed_base" (fun () -> ignore (Nat.Fixed_base.pow fb x)), "us");
    ("bignum.powmod_words", powmod_words, "words");
  ]

let crypto (c : ctx) (dealer : Dealer.t) : metric list =
  let keys i = dealer.Dealer.parties.(i) in
  let msg = "benchmark statement" in
  let ms_pub, ms_share =
    match (keys 0).Dealer.bc_tsig with
    | Tsig.Multi_sec (pub, share) -> (pub, share)
    | Tsig.Shoup_sec _ -> Gate.fail "expected multi-signatures in the benchmark configuration"
  in
  let ms = Crypto.Multi_sig.release ms_pub ms_share ~ctx:"bench" msg in
  let coin = dealer.Dealer.coin_pub in
  let name = "bench-coin" in
  let share i = Crypto.Threshold_coin.release ~drbg coin (keys i).Dealer.coin_share ~name in
  let s0 = share 0 and s1 = share 1 and s2 = share 2 in
  let enc = dealer.Dealer.enc_pub in
  let ct = Crypto.Threshold_enc.encrypt ~drbg enc ~label:"bench" "thirty-two bytes of payload....." in
  let dec i =
    match Crypto.Threshold_enc.dec_share ~drbg enc (keys i).Dealer.enc_share ct with
    | Some d -> d
    | None -> Gate.fail "decryption share refused on a valid ciphertext"
  in
  let d0 = dec 0 and d1 = dec 1 in
  if Crypto.Threshold_enc.combine enc ct [ d0; d1 ] = None then
    Gate.fail "threshold decryption failed";
  [
    ("crypto.rsa_sign_us",
     us c "crypto.rsa_sign" (fun () ->
       ignore (Crypto.Multi_sig.release ms_pub ms_share ~ctx:"bench" msg)), "us");
    ("crypto.rsa_verify_us",
     us c "crypto.rsa_verify" (fun () ->
       ignore (Crypto.Multi_sig.verify_share ms_pub ~ctx:"bench" msg ms)), "us");
    ("crypto.coin_release_us", us c "crypto.coin_release" (fun () -> ignore (share 0)), "us");
    ("crypto.coin_verify_us",
     us c "crypto.coin_verify" (fun () ->
       ignore (Crypto.Threshold_coin.verify_share coin ~name s0)), "us");
    ("crypto.coin_assemble_us",
     us c "crypto.coin_assemble" (fun () ->
       ignore (Crypto.Threshold_coin.assemble_bit coin ~name [ s0; s1 ])), "us");
    ("crypto.batch_verify_k3_us",
     us c "crypto.batch_verify_k3" (fun () ->
       ignore (Crypto.Batch.coin_shares coin ~name [ s0; s1; s2 ])), "us");
    ("crypto.tenc_dec_share_us", us c "crypto.tenc_dec_share" (fun () -> ignore (dec 0)), "us");
    ("crypto.tenc_verify_us",
     us c "crypto.tenc_verify" (fun () ->
       ignore (Crypto.Threshold_enc.verify_dec_share enc ct d0)), "us");
    ("crypto.tenc_combine_us",
     us c "crypto.tenc_combine" (fun () ->
       ignore (Crypto.Threshold_enc.combine enc ct [ d0; d1 ])), "us");
  ]

(* Wire codec and hashes over frames captured from the traced run: the
   [pid, body] envelope every runtime message crosses, and the link MAC
   (HMAC-SHA1) and SHA-256 over the same bytes. *)
let wire (c : ctx) (dealer : Dealer.t) (frames : (int * int * string) list) : metric list =
  match frames with
  | [] -> Gate.fail "the frame tap captured no frames"
  | _ ->
    let envs = List.map (fun (_, _, f) -> f) frames in
    let kb = float_of_int (List.fold_left (fun a f -> a + String.length f) 0 envs) /. 1024.0 in
    let decode f =
      match Wire.decode f (fun d -> let pid = Wire.Dec.bytes d in (pid, Wire.Dec.bytes d)) with
      | Some pb -> pb
      | None -> Gate.fail "a captured frame does not decode as an envelope"
    in
    let decoded = List.map decode envs in
    let keys = Dealer.net_mac_keys dealer in
    let per_kb name f = 1e9 *. fst (timed c name f) /. kb in
    let sizes = List.map (fun f -> float_of_int (String.length f)) envs in
    [
      ("wire.envelope_decode_ns_per_kb",
       per_kb "wire.envelope_decode" (fun () -> List.iter (fun f -> ignore (decode f)) envs), "ns/KB");
      ("wire.envelope_encode_ns_per_kb",
       per_kb "wire.envelope_encode" (fun () ->
         List.iter
           (fun (pid, body) ->
             ignore (Wire.encode (fun e -> Wire.Enc.bytes e pid; Wire.Enc.bytes e body)))
           decoded), "ns/KB");
      ("wire.frame_bytes_p50", Stats.median sizes, "bytes");
      ("hashes.hmac_ns_per_kb",
       per_kb "hashes.hmac" (fun () ->
         List.iter
           (fun (src, dst, f) ->
             ignore (Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA1 ~key:keys.(min src dst).(max src dst) f))
           frames), "ns/KB");
      ("hashes.sha256_ns_per_kb",
       per_kb "hashes.sha256" (fun () -> List.iter (fun f -> ignore (Hashes.Sha256.digest f)) envs),
       "ns/KB");
    ]

(* The write-ahead log: appending the run's round records to a fresh
   in-memory device, and replaying [log] (party 0's device on a durable
   run, else the log the appends build). *)
let store (c : ctx) ~(records : Store.Log.record list) ~(log : string option) : metric list =
  match records with
  | [] -> [ ("store.append_us", 0.0, "us"); ("store.replay_ms", 0.0, "ms") ]
  | _ ->
    let count = float_of_int (List.length records) in
    let build () =
      let dev = Store.Device.mem () in
      List.iter (fun r -> ignore (Store.Log.append dev r)) records;
      dev
    in
    let bytes = match log with Some b -> b | None -> Store.Device.contents (build ()) in
    let replayed = Store.Log.replay_string bytes in
    (match replayed.Store.Log.status with
     | Store.Log.Complete -> ()
     | Store.Log.Torn _ | Store.Log.Corrupt _ -> Gate.fail "the write-ahead log does not replay cleanly");
    [
      ("store.append_us", us c "store.append" (fun () -> ignore (build ())) /. count, "us");
      ("store.replay_ms",
       1000.0 *. fst (timed c "store.replay" (fun () -> ignore (Store.Log.replay_string bytes))),
       "ms");
    ]

(* One isolated protocol instance on a fresh cluster: host ms from
   creating it at every party to the decision everywhere (median of
   [reps] fresh clusters). *)
let instance (c : ctx) (dealer : Dealer.t) ~(reps : int) (name : string)
    (start : Cluster.t -> (unit -> bool)) : float =
  Tracer.span c.tr ~parent:c.parent name (fun _ ->
    let one k =
      let cl = Work.build ~dealer ~seed:(Printf.sprintf "instance|%s|%d" name k) in
      let done_, cost =
        Clock.measure (fun () ->
          let decided = start cl in
          ignore (Cluster.run cl);
          decided ())
      in
      if not done_ then Gate.fail "isolated %s instance did not decide" name;
      1000.0 *. cost.Clock.cpu_s
    in
    Stats.median (List.init reps one))

let instances (c : ctx) (dealer : Dealer.t) ~(reps : int) : metric list =
  let n = Work.n in
  let all f = Array.init n f in
  let everyone (flags : bool array) () = Array.for_all Fun.id flags in
  let rbc cl =
    let got = Array.make n false in
    let insts =
      all (fun i ->
        Reliable_broadcast.create (Cluster.runtime cl i) ~pid:"rbc" ~sender:0
          ~on_deliver:(fun _ -> got.(i) <- true))
    in
    Cluster.inject cl 0 (fun () -> Reliable_broadcast.send insts.(0) "payload");
    everyone got
  in
  let cbc cl =
    let got = Array.make n false in
    let insts =
      all (fun i ->
        Consistent_broadcast.create (Cluster.runtime cl i) ~pid:"cbc" ~sender:0
          ~on_deliver:(fun _ -> got.(i) <- true))
    in
    Cluster.inject cl 0 (fun () -> Consistent_broadcast.send insts.(0) "payload");
    everyone got
  in
  let aba cl =
    let got = Array.make n false in
    let insts =
      all (fun i ->
        Binary_agreement.create (Cluster.runtime cl i) ~pid:"aba"
          ~on_decide:(fun _ _ -> got.(i) <- true))
    in
    Array.iteri
      (fun i inst -> Cluster.inject cl i (fun () -> Binary_agreement.propose inst (i mod 2 = 0)))
      insts;
    everyone got
  in
  let mvba cl =
    let got = Array.make n false in
    let insts =
      all (fun i ->
        Array_agreement.create (Cluster.runtime cl i) ~pid:"mv"
          ~validator:(fun s -> String.length s > 0)
          ~on_decide:(fun _ -> got.(i) <- true))
    in
    Array.iteri
      (fun i inst ->
        Cluster.inject cl i (fun () -> Array_agreement.propose inst (Printf.sprintf "proposal-%d" i)))
      insts;
    everyone got
  in
  [
    ("sintra.rbc_instance_ms", instance c dealer ~reps "sintra.rbc_instance" rbc, "ms");
    ("sintra.cbc_instance_ms", instance c dealer ~reps "sintra.cbc_instance" cbc, "ms");
    ("sintra.aba_instance_ms", instance c dealer ~reps "sintra.aba_instance" aba, "ms");
    ("sintra.mvba_instance_ms", instance c dealer ~reps "sintra.mvba_instance" mvba, "ms");
  ]
