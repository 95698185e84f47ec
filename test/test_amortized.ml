(* The crypto-equivalence harness for the amortized verification layer.

   The amortization mechanisms — batch verification by random linear
   combination (Crypto.Batch), the bounded verified-share cache
   (Crypto.Share_cache behind the Verify seam), and coin pre-generation
   (Binary_agreement + Config.coin_pregen) — all claim the same contract:
   acceptance is EXACTLY that of the reference one-at-a-time verifiers,
   only the virtual-CPU charges move.  This suite proves it:

   - randomized accept/reject EQUIVALENCE (280 cases): the batched
     verdicts agree with the fast single verifiers, which agree with the
     plain reference twins, share by share, across mixed batches of honest
     and forged shares;
   - PLANTED-FORGERY soundness (220 cases): when a batch contains known
     forgeries, bisection names exactly their indices — Byzantine
     attribution is identical to the one-at-a-time path;
   - cache determinism: a seeded protocol run delivers byte-identical logs
     with the cache and batching on or off;
   - replay-after-GC: instance garbage collection evicts the instance's
     cache group, so replayed frames re-verify instead of resurrecting
     stale verification state, and capacity bounds memory;
   - cost-charge regressions: the charge model prices a k-batch strictly
     below k singles and a cache hit far below any verification;
   - coin pre-generation safety: ABA decides identically with pregen on or
     off across 50 seeds, including crash/rebuild mid-pregen. *)

open Crypto
open Sintra

let drbg = Util.drbg ~seed:"amortized-tests" ()

(* Shared fixtures (key generation dominates runtime). *)
let group =
  lazy (Group.generate ~drbg:(Hashes.Drbg.fork drbg "grp") ~pbits:256 ~qbits:96)

let tsig_keys =
  lazy (Threshold_sig.deal ~drbg:(Hashes.Drbg.fork drbg "tsig")
          ~modulus_bits:256 ~nparties:4 ~k:3 ~t:1 ())

let coin_keys =
  lazy (Threshold_coin.deal ~drbg:(Hashes.Drbg.fork drbg "coin")
          ~group:(Lazy.force group) ~n:4 ~k:2 ~t:1)

let tsig_ctx = "amort-tsig"
let tsig_msgs = Array.init 5 (Printf.sprintf "statement-%d")
let coin_names = Array.init 5 (Printf.sprintf "coin-%d")

(* Honest share pools, one release per (message, origin): mutations below
   recombine pool entries, so the multi-hundred-case sweeps pay 20 releases
   per scheme, not one per slot. *)
let tsig_pool =
  lazy
    (let keys = Lazy.force tsig_keys in
     let d = Hashes.Drbg.fork drbg "tsig-pool" in
     Array.map
       (fun msg ->
         Array.map
           (fun sk ->
             Threshold_sig.release ~drbg:d keys.Threshold_sig.public sk
               ~ctx:tsig_ctx msg)
           keys.Threshold_sig.shares)
       tsig_msgs)

let coin_pool =
  lazy
    (let keys = Lazy.force coin_keys in
     let d = Hashes.Drbg.fork drbg "coin-pool" in
     Array.map
       (fun name ->
         Array.map
           (fun sk ->
             Threshold_coin.release ~drbg:d keys.Threshold_coin.public sk
               ~name)
           keys.Threshold_coin.shares)
       coin_names)

(* Slot code -> concrete share for message/name index [m], origin slot [o].
   0 honest; the rest are forgeries that every verifier must reject:
   1 cross-statement (an honest proof about a different message), 2 origin
   relabel (checked against the wrong verification key), 3 proof response
   transplanted from another origin's share, 4 origin out of range. *)
let tsig_slot (pool : Threshold_sig.share array array) ~(m : int) ~(o : int)
    (code : int) : Threshold_sig.share =
  let nmsgs = Array.length pool and n = Array.length pool.(0) in
  let s = pool.(m).(o) in
  match code with
  | 0 -> s
  | 1 -> pool.((m + 1) mod nmsgs).(o)
  | 2 -> { s with Threshold_sig.origin = (s.Threshold_sig.origin mod n) + 1 }
  | 3 ->
    { s with
      Threshold_sig.proof_z = pool.(m).((o + 1) mod n).Threshold_sig.proof_z }
  | _ -> { s with Threshold_sig.origin = 0 }

let coin_slot (pool : Threshold_coin.share array array) ~(m : int) ~(o : int)
    (code : int) : Threshold_coin.share =
  let nnames = Array.length pool and n = Array.length pool.(0) in
  let s = pool.(m).(o) in
  match code with
  | 0 -> s
  | 1 -> pool.((m + 1) mod nnames).(o)
  | 2 -> { s with Threshold_coin.origin = (s.Threshold_coin.origin mod n) + 1 }
  | 3 -> { s with Threshold_coin.value = pool.(m).((o + 1) mod n).Threshold_coin.value }
  | _ -> { s with Threshold_coin.origin = 0 }

let ints (l : int list) : string = String.concat "," (List.map string_of_int l)

let bad_of_flags (valid : bool list) : int list =
  List.concat (List.mapi (fun i ok -> if ok then [] else [ i ]) valid)

let check_verdict ~(what : string) ~(expected_bad : int list)
    (v : Batch.verdict) : unit =
  let got = match v with Batch.All_valid -> [] | Batch.Invalid l -> l in
  if got <> expected_bad then
    Alcotest.failf "%s: batch named [%s], singles named [%s]" what (ints got)
      (ints expected_bad)

(* --- equivalence and planted-forgery sweeps --- *)

let equivalence_tests =
  [
    Alcotest.test_case
      "tsig batch equivalence: 110 randomized accept/reject cases" `Quick
      (fun () ->
        let pub = (Lazy.force tsig_keys).Threshold_sig.public in
        let pool = Lazy.force tsig_pool in
        let plans =
          Util.batch_plans ~drbg:(Hashes.Drbg.fork drbg "tsig-eq") ~cases:110
            ~max_size:6 ~mutations:4
        in
        List.iteri
          (fun case plan ->
            let m = case mod Array.length tsig_msgs in
            let msg = tsig_msgs.(m) in
            let shares =
              List.mapi
                (fun j code -> tsig_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            let fast =
              List.map (Threshold_sig.verify_share pub ~ctx:tsig_ctx msg) shares
            in
            let refr =
              List.map
                (Threshold_sig.verify_share_reference pub ~ctx:tsig_ctx msg)
                shares
            in
            if fast <> refr then
              Alcotest.failf
                "case %d: fast and reference single verifiers disagree" case;
            check_verdict
              ~what:(Printf.sprintf "tsig case %d" case)
              ~expected_bad:(bad_of_flags fast)
              (Batch.tsig_shares pub ~ctx:tsig_ctx msg shares))
          plans);

    Alcotest.test_case
      "coin batch equivalence: 110 randomized accept/reject cases" `Quick
      (fun () ->
        let pub = (Lazy.force coin_keys).Threshold_coin.public in
        let pool = Lazy.force coin_pool in
        let plans =
          Util.batch_plans ~drbg:(Hashes.Drbg.fork drbg "coin-eq") ~cases:110
            ~max_size:6 ~mutations:4
        in
        List.iteri
          (fun case plan ->
            let m = case mod Array.length coin_names in
            let name = coin_names.(m) in
            let shares =
              List.mapi
                (fun j code -> coin_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            let fast =
              List.map (Threshold_coin.verify_share pub ~name) shares
            in
            let refr =
              List.map (Threshold_coin.verify_share_reference pub ~name) shares
            in
            if fast <> refr then
              Alcotest.failf
                "case %d: fast and reference single verifiers disagree" case;
            check_verdict
              ~what:(Printf.sprintf "coin case %d" case)
              ~expected_bad:(bad_of_flags fast)
              (Batch.coin_shares pub ~name shares))
          plans);

    Alcotest.test_case
      "dleq batch equivalence (untrusted h1): 60 randomized cases" `Quick
      (fun () ->
        let grp = Lazy.force group in
        let d = Hashes.Drbg.fork drbg "dleq-eq" in
        let g2 = Group.hash_to_group grp "dleq-base" in
        let items =
          Array.init 8 (fun i ->
            let x = Group.random_exponent grp ~drbg:d in
            let h1 = Group.pow_g grp x and h2 = Group.pow grp g2 x in
            let ctx = Printf.sprintf "dleq-%d" i in
            let proof =
              Dleq.prove grp ~drbg:d ~ctx ~g1:grp.Group.g ~h1 ~g2 ~h2 ~x
            in
            (ctx, h1, h2, proof))
        in
        let plans =
          Util.batch_plans ~drbg:(Hashes.Drbg.fork drbg "dleq-plan") ~cases:60
            ~max_size:5 ~mutations:2
        in
        List.iteri
          (fun case plan ->
            let slots =
              List.mapi
                (fun j code ->
                  let ctx, h1, h2, proof = items.((case + j) mod 8) in
                  match code with
                  | 0 -> (ctx, h1, h2, proof)
                  | 1 ->
                    let _, _, _, p' = items.((case + j + 1) mod 8) in
                    (ctx, h1, h2, p')
                  | _ ->
                    let _, h1', _, _ = items.((case + j + 1) mod 8) in
                    (ctx, h1', h2, proof))
                plan
            in
            let fast =
              List.map
                (fun (ctx, h1, h2, proof) ->
                  Dleq.verify grp ~ctx ~g1:grp.Group.g ~h1 ~g2 ~h2 proof)
                slots
            in
            let refr =
              List.map
                (fun (ctx, h1, h2, proof) ->
                  Dleq.verify_reference grp ~ctx ~g1:grp.Group.g ~h1 ~g2 ~h2
                    proof)
                slots
            in
            if fast <> refr then
              Alcotest.failf
                "case %d: fast and reference single verifiers disagree" case;
            check_verdict
              ~what:(Printf.sprintf "dleq case %d" case)
              ~expected_bad:(bad_of_flags fast)
              (Batch.dleq grp ~g1:grp.Group.g ~g2 slots))
          plans);

    Alcotest.test_case
      "tsig planted forgeries: bisection names exact indices, 110 cases"
      `Quick (fun () ->
        let pub = (Lazy.force tsig_keys).Threshold_sig.public in
        let pool = Lazy.force tsig_pool in
        let plans =
          Util.planted_plans ~drbg:(Hashes.Drbg.fork drbg "tsig-forge")
            ~cases:110 ~max_size:6 ~mutations:4
        in
        List.iteri
          (fun case plan ->
            let m = case mod Array.length tsig_msgs in
            let msg = tsig_msgs.(m) in
            let shares =
              List.mapi
                (fun j code -> tsig_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            (* Generator soundness: every planted slot must really fail the
               single verifier, every honest slot must pass. *)
            List.iteri
              (fun j code ->
                let ok =
                  Threshold_sig.verify_share pub ~ctx:tsig_ctx msg
                    (List.nth shares j)
                in
                if ok <> (code = 0) then
                  Alcotest.failf "case %d slot %d: mutation %d not %s" case j
                    code
                    (if code = 0 then "accepted" else "rejected"))
              plan;
            let planted = bad_of_flags (List.map (fun c -> c = 0) plan) in
            check_verdict
              ~what:(Printf.sprintf "tsig forgery case %d" case)
              ~expected_bad:planted
              (Batch.tsig_shares pub ~ctx:tsig_ctx msg shares))
          plans);

    Alcotest.test_case
      "coin planted forgeries: bisection names exact indices, 110 cases"
      `Quick (fun () ->
        let pub = (Lazy.force coin_keys).Threshold_coin.public in
        let pool = Lazy.force coin_pool in
        let plans =
          Util.planted_plans ~drbg:(Hashes.Drbg.fork drbg "coin-forge")
            ~cases:110 ~max_size:6 ~mutations:4
        in
        List.iteri
          (fun case plan ->
            let m = case mod Array.length coin_names in
            let name = coin_names.(m) in
            let shares =
              List.mapi
                (fun j code -> coin_slot pool ~m ~o:((case + j) mod 4) code)
                plan
            in
            List.iteri
              (fun j code ->
                let ok = Threshold_coin.verify_share pub ~name (List.nth shares j) in
                if ok <> (code = 0) then
                  Alcotest.failf "case %d slot %d: mutation %d not %s" case j
                    code
                    (if code = 0 then "accepted" else "rejected"))
              plan;
            let planted = bad_of_flags (List.map (fun c -> c = 0) plan) in
            check_verdict
              ~what:(Printf.sprintf "coin forgery case %d" case)
              ~expected_bad:planted
              (Batch.coin_shares pub ~name shares))
          plans);
  ]

(* --- verified-share cache: bounds, eviction, replay-after-GC --- *)

let sha (s : string) : string = Hashes.Sha256.digest_list [ s ]

let cache_tests =
  [
    Alcotest.test_case "share cache: FIFO bound, idempotence, group eviction"
      `Quick (fun () ->
        let t = Share_cache.create ~cap:4 in
        for i = 1 to 6 do
          Share_cache.add t ~group:"g" ~scheme:"s" ~digest:(sha (string_of_int i))
            ~sender:i ~index:i;
          if Share_cache.size t > 4 then
            Alcotest.failf "cache exceeded its capacity at insert %d" i
        done;
        Alcotest.(check int) "at capacity" 4 (Share_cache.size t);
        (* FIFO: the two oldest entries made room for 5 and 6. *)
        Alcotest.(check bool) "entry 1 evicted" false
          (Share_cache.mem t ~scheme:"s" ~digest:(sha "1") ~sender:1 ~index:1);
        Alcotest.(check bool) "entry 2 evicted" false
          (Share_cache.mem t ~scheme:"s" ~digest:(sha "2") ~sender:2 ~index:2);
        Alcotest.(check bool) "entry 6 live" true
          (Share_cache.mem t ~scheme:"s" ~digest:(sha "6") ~sender:6 ~index:6);
        (* Idempotent re-insertion does not grow or evict. *)
        Share_cache.add t ~group:"g" ~scheme:"s" ~digest:(sha "6") ~sender:6
          ~index:6;
        Alcotest.(check int) "idempotent" 4 (Share_cache.size t);
        Share_cache.evict_group t "g";
        Alcotest.(check int) "group evicted" 0 (Share_cache.size t);
        Alcotest.(check bool) "no resurrection" false
          (Share_cache.mem t ~scheme:"s" ~digest:(sha "6") ~sender:6 ~index:6));

    Alcotest.test_case
      "replay after GC: eviction forces re-verification at the Verify seam"
      `Quick (fun () ->
        let c =
          Util.cluster ~seed:"amort-shoup" ~tsig_scheme:Config.Shoup ()
        in
        let rt = Cluster.runtime c 0 in
        let sec = rt.Runtime.keys.Dealer.bc_tsig in
        let pub = Tsig.public_of_secret sec in
        let pid = "gc-pid" and stmt = "gc-stmt" in
        Runtime.register rt ~pid (fun ~src:_ _ -> ());
        let sh = Tsig.release ~drbg:rt.Runtime.drbg sec ~ctx:pid stmt in
        let cache = rt.Runtime.cache in
        Alcotest.(check bool) "first verification" true
          (Verify.tsig_share rt ~pub ~ctx:pid stmt sh);
        Alcotest.(check int) "cached" 1 (Share_cache.size cache);
        Alcotest.(check bool) "replayed share accepted" true
          (Verify.tsig_share rt ~pub ~ctx:pid stmt sh);
        Alcotest.(check int) "replay was a cache hit" 1 (Share_cache.hits cache);
        (* Instance GC evicts the pid's cache group... *)
        Runtime.unregister rt ~pid;
        Alcotest.(check int) "GC evicted the group" 0 (Share_cache.size cache);
        (* ...so a frame replayed after GC re-verifies for real instead of
           resurrecting stale cache state. *)
        Alcotest.(check bool) "post-GC replay re-verifies" true
          (Verify.tsig_share rt ~pub ~ctx:pid stmt sh);
        Alcotest.(check int) "post-GC replay was a miss, not a hit" 1
          (Share_cache.hits cache);
        Alcotest.(check int) "re-verified share re-cached" 1
          (Share_cache.size cache));

    Alcotest.test_case
      "cache capacity bounds memory under a distinct-statement flood" `Quick
      (fun () ->
        let c =
          Util.cluster ~seed:"amort-cap" ~tsig_scheme:Config.Shoup
            ~share_cache_cap:8 ()
        in
        let rt = Cluster.runtime c 0 in
        let sec = rt.Runtime.keys.Dealer.bc_tsig in
        let pub = Tsig.public_of_secret sec in
        for i = 1 to 32 do
          let stmt = Printf.sprintf "flood-%d" i in
          let sh = Tsig.release ~drbg:rt.Runtime.drbg sec ~ctx:"flood" stmt in
          Alcotest.(check bool) "verified" true
            (Verify.tsig_share rt ~pub ~ctx:"flood" stmt sh);
          if Share_cache.size rt.Runtime.cache > 8 then
            Alcotest.failf "cache exceeded its capacity at statement %d" i
        done;
        Alcotest.(check int) "bounded at capacity" 8
          (Share_cache.size rt.Runtime.cache);
        (* The cache-size gauge tracks the same bound. *)
        let m = Trace.Ctx.metrics rt.Runtime.trace in
        match Trace.Metrics.find_counter m "p0/verify.cache_size" with
        | Some g -> Alcotest.(check (float 0.0)) "gauge" 8.0 (Trace.Metrics.value g)
        | None -> Alcotest.fail "verify.cache_size gauge never recorded");
  ]

(* --- delivery-log determinism and scenario cost regression --- *)

let counter_value (c : Cluster.t) (p : int) (name : string) : float =
  let m = Trace.Ctx.metrics (Cluster.runtime c p).Runtime.trace in
  match Trace.Metrics.find_counter m (Printf.sprintf "p%d/%s" p name) with
  | Some ctr -> Trace.Metrics.value ctr
  | None -> 0.0

let hist_count (c : Cluster.t) (p : int) (name : string) : int =
  let m = Trace.Ctx.metrics (Cluster.runtime c p).Runtime.trace in
  match Trace.Metrics.find_hist m (Printf.sprintf "p%d/%s" p name) with
  | Some h -> Trace.Metrics.hist_count h
  | None -> 0

type det_run = {
  logs : string list;  (* per party, ";"-joined delivery order *)
  cpu : float;         (* summed virtual-CPU charge over all parties *)
  batch_obs : int;     (* verify.batch_size observations, all parties *)
}

(* One seeded consistent-broadcast run under a replay storm: party 0
   broadcasts four payloads while every third frame is re-injected late.
   Per-origin delivery order is the protocol's own guarantee, so with a
   single origin the full log must be identical whatever the amortization
   flags — byte for byte. *)
let consistent_run ~(batch_verify : bool) ~(share_cache : bool) () : det_run =
  let c =
    Util.cluster ~seed:"amort-shoup" ~tsig_scheme:Config.Shoup
      ~check_invariants:true ~batch_verify ~share_cache ()
  in
  Faults.install c (Faults.replay_every 3 ~delay:0.7);
  let logs = Array.init 4 (fun _ -> ref []) in
  let chans =
    Array.init 4 (fun p ->
      Consistent_channel.create (Cluster.runtime c p) ~pid:"det"
        ~on_deliver:(fun ~sender m ->
          logs.(p) := Printf.sprintf "%d:%s" sender m :: !(logs.(p)))
        ())
  in
  List.iteri
    (fun j time ->
      let payload = Printf.sprintf "det.%d" j in
      let submit () =
        Cluster.inject c 0 (fun () -> Consistent_channel.send chans.(0) payload)
      in
      if time <= 0.0 then submit () else Cluster.at c ~time submit)
    [ 0.0; 0.6; 1.2; 1.8 ];
  ignore (Cluster.run c ~until:300.0);
  Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
  for p = 0 to 3 do
    match Invariant.flagged (Cluster.runtime c p).Runtime.inv with
    | [] -> ()
    | (off, why) :: _ ->
      Alcotest.failf "party %d flagged party %d in an honest run: %s" p off why
  done;
  let cpu = ref 0.0 and batch_obs = ref 0 in
  for p = 0 to 3 do
    cpu :=
      !cpu
      +. (Cluster.runtime c p).Runtime.charge.Charge.meter.Sim.Cost.total_ms;
    batch_obs := !batch_obs + hist_count c p "verify.batch_size"
  done;
  {
    logs =
      Array.to_list
        (Array.map (fun l -> String.concat ";" (List.rev !l)) logs);
    cpu = !cpu;
    batch_obs = !batch_obs;
  }

let determinism_tests =
  [
    Alcotest.test_case
      "delivery logs byte-identical across all amortization flag settings"
      `Quick (fun () ->
        let runs =
          List.map
            (fun (bv, sc) -> consistent_run ~batch_verify:bv ~share_cache:sc ())
            [ (true, true); (true, false); (false, true); (false, false) ]
        in
        (match runs with
         | base :: rest ->
           List.iter
             (fun l ->
               if String.length l = 0 then Alcotest.fail "empty delivery log")
             base.logs;
           List.iteri
             (fun i r ->
               if r.logs <> base.logs then
                 Alcotest.failf
                   "flag setting %d changed the delivery log:\n%s\nvs\n%s" i
                   (String.concat "\n" r.logs)
                   (String.concat "\n" base.logs))
             rest
         | [] -> assert false);
        (* The all-on run must actually have amortized something... *)
        let on = List.nth runs 0 and off = List.nth runs 3 in
        if on.batch_obs = 0 then
          Alcotest.fail "batch verification never engaged in the all-on run";
        (* ...and charging a batch below k singles must show up as strictly
           less total virtual CPU for the same outcome. *)
        if not (on.cpu < off.cpu) then
          Alcotest.failf
            "amortization did not reduce virtual CPU: %.3f ms on vs %.3f ms off"
            on.cpu off.cpu);
  ]

(* --- cost-charge regression: the charge model itself --- *)

let cost_tests =
  [
    Alcotest.test_case
      "charge model: k-batch strictly below k singles, hit below everything"
      `Quick (fun () ->
        let scratch cfg =
          { Charge.meter = Sim.Cost.create_meter ~exp_ms:100.0;
            cfg;
            trace = Trace.Ctx.null () }
        in
        let cost cfg f =
          let s = scratch cfg in
          f s;
          s.Charge.meter.Sim.Cost.total_ms
        in
        let shoup = Config.make ~n:4 ~t:1 ~tsig_scheme:Config.Shoup () in
        let multi = Config.make ~n:4 ~t:1 ~tsig_scheme:Config.Multi () in
        let tsig_single = cost shoup Charge.tsig_verify_share in
        let tsig_batch3 =
          cost shoup (fun s -> Charge.tsig_verify_share_batch s ~k:3)
        in
        if not (tsig_batch3 < 3.0 *. tsig_single) then
          Alcotest.failf "tsig batch of 3 (%.3f ms) not below 3 singles (%.3f ms)"
            tsig_batch3 (3.0 *. tsig_single);
        (* The batch still pays per share: the charge must grow with k. *)
        let tsig_batch1 =
          cost shoup (fun s -> Charge.tsig_verify_share_batch s ~k:1)
        in
        if not (tsig_batch3 > tsig_batch1) then
          Alcotest.failf
            "tsig batch charge not monotone in k: k=3 %.3f ms vs k=1 %.3f ms"
            tsig_batch3 tsig_batch1;
        (* Multi-signature shares have no combined equation: the batch
           charge must honestly equal k independent verifications. *)
        let multi_single = cost multi Charge.tsig_verify_share in
        let multi_batch3 =
          cost multi (fun s -> Charge.tsig_verify_share_batch s ~k:3)
        in
        Alcotest.(check (float 1e-9)) "multi batch = k singles"
          (3.0 *. multi_single) multi_batch3;
        let coin_single = cost shoup Charge.coin_verify_share in
        let coin_batch3 =
          cost shoup (fun s -> Charge.coin_verify_share_batch s ~k:3)
        in
        if not (coin_batch3 < 3.0 *. coin_single) then
          Alcotest.failf "coin batch of 3 (%.3f ms) not below 3 singles (%.3f ms)"
            coin_batch3 (3.0 *. coin_single);
        let hit = cost shoup Charge.cache_hit in
        if not (hit < tsig_single /. 10.0 && hit < coin_single /. 10.0) then
          Alcotest.failf "cache hit (%.6f ms) not far below a verification" hit);
  ]

(* --- coin pre-generation safety --- *)

(* One dealer for the whole sweep (key material is independent of both the
   run seed and the pregen flag); engines are seeded per run, as in the
   vopr workloads. *)
let pregen_cluster ~(coin_pregen : bool) ~(run_seed : string) : Cluster.t =
  let cfg = Config.make ~n:4 ~t:1 ~check_invariants:true ~coin_pregen () in
  Cluster.of_dealer ~engine_seed:("engine|" ^ run_seed)
    ~topo:(Util.default_topo ()) (Dealer.memo ~seed:"amort-aba" cfg)

(* Run one seeded ABA instance with mixed proposals; returns the per-party
   decisions and the summed cache-hit count (coin-share justifications
   repeat shares across votes, so the cache must engage). *)
let aba_decisions ~(coin_pregen : bool) ~(run_seed : string) :
    string array * float =
  let c = pregen_cluster ~coin_pregen ~run_seed in
  let decided = Array.make 4 None in
  let insts =
    Array.init 4 (fun i ->
      Binary_agreement.create (Cluster.runtime c i) ~pid:"aba"
        ~on_decide:(fun b _ -> decided.(i) <- Some b))
  in
  let d = Hashes.Drbg.create ~seed:("prop|" ^ run_seed) in
  (* Split proposals force coin rounds more often than not. *)
  let props = Array.init 4 (fun i -> i mod 2 = Hashes.Drbg.int d 2) in
  Array.iteri
    (fun i inst ->
      Cluster.inject c i (fun () -> Binary_agreement.propose inst props.(i)))
    insts;
  ignore (Cluster.run c ~until:300.0);
  Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
  let hits = ref 0.0 in
  for p = 0 to 3 do
    (match Invariant.flagged (Cluster.runtime c p).Runtime.inv with
     | [] -> ()
     | (off, why) :: _ ->
       Alcotest.failf "party %d flagged party %d in an honest run: %s" p off
         why);
    hits := !hits +. counter_value c p "verify.cache_hit"
  done;
  ( Array.map
      (function Some b -> string_of_bool b | None -> "undecided")
      decided,
    !hits )

(* Crash party 2 mid-run (while pre-generated coin shares sit in volatile
   round state), rebuild it through Runtime.on_rebuild, and return every
   party's final atomic delivery order. *)
let rebuild_logs ~(coin_pregen : bool) () : string list =
  let c = pregen_cluster ~coin_pregen ~run_seed:"amort-rebuild" in
  let logs = Array.init 4 (fun _ -> ref []) in
  let chans : Atomic_channel.t option array = Array.make 4 None in
  let make p =
    let rt = Cluster.runtime c p in
    chans.(p) <-
      Some
        (Atomic_channel.create rt ~pid:"pre"
           ~on_deliver:(fun ~sender m ->
             logs.(p) := Printf.sprintf "%d:%s" sender m :: !(logs.(p)))
           ())
  in
  for p = 0 to 3 do make p done;
  let rt2 = Cluster.runtime c 2 in
  Runtime.on_rebuild rt2 (fun () ->
    logs.(2) := [];
    make 2);
  let send p m =
    Cluster.inject c p (fun () ->
      match chans.(p) with
      | Some ch -> Atomic_channel.send ch m
      | None -> ())
  in
  for p = 0 to 3 do send p (Printf.sprintf "p%d.a" p) done;
  Cluster.at c ~time:0.5 (fun () -> Runtime.crash rt2);
  Cluster.at c ~time:3.0 (fun () -> Runtime.recover rt2);
  Cluster.at c ~time:4.0 (fun () ->
    send 0 "p0.b";
    send 1 "p1.b";
    send 3 "p3.b");
  Cluster.at c ~time:4.5 (fun () -> send 2 "p2.b");
  ignore (Cluster.run c ~until:300.0);
  Alcotest.(check int) "quiesced" 0 (Sim.Engine.pending c.Cluster.engine);
  Array.to_list (Array.map (fun l -> String.concat ";" (List.rev !l)) logs)

let pregen_tests =
  [
    Alcotest.test_case
      "coin pregen: ABA decides identically, pregen on vs off, 50 seeds"
      `Quick (fun () ->
        let hits = ref 0.0 in
        for s = 0 to 49 do
          let run_seed = Printf.sprintf "pregen-%d" s in
          let on, h_on = aba_decisions ~coin_pregen:true ~run_seed in
          let off, _ = aba_decisions ~coin_pregen:false ~run_seed in
          Array.iter
            (fun d ->
              if d = "undecided" then
                Alcotest.failf "seed %s: a party never decided" run_seed)
            on;
          if on <> off then
            Alcotest.failf "seed %s: pregen changed the decision: %s vs %s"
              run_seed
              (String.concat "," (Array.to_list on))
              (String.concat "," (Array.to_list off));
          hits := !hits +. h_on
        done;
        (* Coin-share justifications repeat shares across votes; the sweep
           as a whole must have exercised the verified-share cache. *)
        if !hits <= 0.0 then
          Alcotest.fail "verified-share cache never hit across the ABA sweep");

    Alcotest.test_case
      "coin pregen: crash/rebuild mid-pregen leaves the outcome unchanged"
      `Quick (fun () ->
        let on = rebuild_logs ~coin_pregen:true () in
        let off = rebuild_logs ~coin_pregen:false () in
        (* Total order holds within each run, including the rebuilt party. *)
        Util.check_all_equal "order with pregen on" on;
        Util.check_all_equal "order with pregen off" off;
        (* And pre-generation changes nothing about the outcome. *)
        if on <> off then
          Alcotest.failf
            "pregen changed the post-rebuild delivery order:\n%s\nvs\n%s"
            (String.concat "\n" on) (String.concat "\n" off));
  ]

(* --- the multi-signature fallback at the Verify seam --- *)

(* Multi-signature shares have no batch equation, so [Verify.tsig_shares]
   checks them one by one through a single per-message closure that hashes
   the statement once.  Its verdicts must be exactly those of an
   independent [Rsa.verify] per share. *)
let fallback_tests =
  [
    Alcotest.test_case "multi-sig fallback: shared FDH = per-share Rsa.verify"
      `Quick (fun () ->
        let c = Util.cluster ~seed:"amort-multi" ~tsig_scheme:Config.Multi () in
        let rt = Cluster.runtime c 0 in
        let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
        let mpub =
          match pub with
          | Tsig.Multi_pub p -> p
          | Tsig.Shoup_pub _ -> Alcotest.fail "expected a multi-signature key"
        in
        let reference ~ctx stmt (s : Tsig.share) =
          match s with
          | Tsig.Multi_share { Multi_sig.origin; signature } ->
            origin >= 1 && origin <= mpub.Multi_sig.nparties
            && Rsa.verify mpub.Multi_sig.party_keys.(origin - 1) ~ctx ~signature stmt
          | Tsig.Shoup_share _ -> false
        in
        let mutate f = function
          | Tsig.Multi_share sh -> Tsig.Multi_share (f sh)
          | Tsig.Shoup_share _ as s -> s
        in
        let forge (sh : Multi_sig.share) =
          let b = Bytes.of_string sh.Multi_sig.signature in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x80));
          { sh with Multi_sig.signature = Bytes.to_string b }
        in
        let truncate (sh : Multi_sig.share) =
          let s = sh.Multi_sig.signature in
          { sh with Multi_sig.signature = String.sub s 0 (String.length s - 1) }
        in
        let case = ref 0 in
        let run name (edit : Tsig.share list -> Tsig.share list) =
          incr case;
          (* A fresh statement per case, so no verdict comes from the cache. *)
          let ctx = Printf.sprintf "fallback-%d" !case and stmt = "fallback " ^ name in
          Runtime.register rt ~pid:ctx (fun ~src:_ _ -> ());
          let honest =
            List.init 4 (fun i ->
              let r = Cluster.runtime c i in
              Tsig.release ~drbg:r.Runtime.drbg r.Runtime.keys.Dealer.bc_tsig ~ctx stmt)
          in
          let shares = edit honest in
          let got = Verify.tsig_shares rt ~pub ~ctx stmt shares in
          List.iteri
            (fun i s ->
              Alcotest.(check bool) (Printf.sprintf "%s: share %d" name i)
                (reference ~ctx stmt s) got.(i))
            shares;
          Runtime.unregister rt ~pid:ctx;
          got
        in
        let at j f l = List.mapi (fun i s -> if i = j then mutate f s else s) l in
        Alcotest.(check (array bool)) "honest shares all pass"
          [| true; true; true; true |] (run "honest" Fun.id);
        for j = 0 to 3 do
          let forged = run (Printf.sprintf "forged at %d" j) (at j forge) in
          Alcotest.(check bool) "forgery caught" false forged.(j);
          ignore (run (Printf.sprintf "truncated at %d" j) (at j truncate))
        done;
        ignore (run "duplicate origin" (fun l -> l @ [ List.hd l ]));
        ignore (run "out-of-range origin"
                  (at 1 (fun sh -> { sh with Multi_sig.origin = 9 })));
        ignore (run "origin 0" (at 2 (fun sh -> { sh with Multi_sig.origin = 0 })));
        ignore (run "stolen origin" (at 3 (fun sh -> { sh with Multi_sig.origin = 1 }))));
  ]


(* --- cache keys are framed: no forgery by shifting bytes across parts ---

   A cache key used to be a digest of the unframed concatenation of its
   parts, so moving bytes across a part boundary reproduced a cached key.
   Each case below verifies an honest item, then presents a forgery whose
   concatenated parts equal the honest one's; the Verify seam must reject
   it, as the one-shot verifier does. *)

(* Move the first byte of [b]'s encoding to the end of [a]'s; [None] when
   the shifted values do not encode to exactly those bytes. *)
let shift_byte (a : Bignum.Nat.t) (b : Bignum.Nat.t)
    : (Bignum.Nat.t * Bignum.Nat.t) option =
  let ab = Bignum.Nat.to_bytes_be a and bb = Bignum.Nat.to_bytes_be b in
  if String.length bb < 2 || bb.[1] = '\000' then None
  else
    Some
      ( Bignum.Nat.of_bytes_be (ab ^ String.sub bb 0 1),
        Bignum.Nat.of_bytes_be (String.sub bb 1 (String.length bb - 1)) )

let forgery_tests =
  [
    Alcotest.test_case "shifted closing: a cached closing key is not reusable"
      `Quick (fun () ->
        let c = Util.cluster ~seed:"forge-closing" ~tsig_scheme:Config.Multi () in
        let rt = Cluster.runtime c 0 in
        let pid = "forge-cbc" in
        let sec = rt.Runtime.keys.Dealer.bc_tsig in
        let pub = Tsig.public_of_secret sec in
        let stmt = Consistent_broadcast.statement ~pid "hello" in
        let shares =
          List.init 3 (fun i ->
            let r = Cluster.runtime c i in
            Tsig.release ~drbg:r.Runtime.drbg r.Runtime.keys.Dealer.bc_tsig
              ~ctx:pid stmt)
        in
        let signature = Tsig.assemble pub ~ctx:pid stmt shares in
        let closing payload signature =
          Wire.encode (fun b -> Wire.Enc.bytes b payload; Wire.Enc.bytes b signature)
        in
        Alcotest.(check bool) "honest closing" true
          (Consistent_broadcast.closing_valid rt ~pid (closing "hello" signature));
        (* An assembled multi-signature starts with its count, "0003". *)
        Alcotest.(check char) "signature starts with '0'" '0' signature.[0];
        let forged = String.sub signature 1 (String.length signature - 1) in
        Alcotest.(check bool) "one-shot verifier rejects the forgery" false
          (Tsig.verify pub ~ctx:pid ~signature:forged
             (Consistent_broadcast.statement ~pid "hello0"));
        Alcotest.(check bool) "shifted closing rejected" false
          (Consistent_broadcast.closing_valid rt ~pid (closing "hello0" forged)));

    Alcotest.test_case "shifted coin share: a cached share key is not reusable"
      `Quick (fun () ->
        let c = Util.cluster ~seed:"forge-coin" () in
        let rt = Cluster.runtime c 0 and r1 = Cluster.runtime c 1 in
        let pub = rt.Runtime.keys.Dealer.coin_pub in
        let rec pick i =
          let name = Printf.sprintf "forge-coin-%d" i in
          let s =
            Threshold_coin.release ~drbg:r1.Runtime.drbg pub
              r1.Runtime.keys.Dealer.coin_share ~name
          in
          match
            shift_byte s.Threshold_coin.value s.Threshold_coin.proof.Dleq.a1
          with
          | Some (value, a1) ->
            (name, s,
             { s with
               Threshold_coin.value;
               proof = { s.Threshold_coin.proof with Dleq.a1 } })
          | None -> pick (i + 1)
        in
        let name, honest, forged = pick 0 in
        Alcotest.(check bool) "honest share" true
          (Verify.coin_share rt ~group:"forge" ~name honest);
        Alcotest.(check bool) "one-shot verifier rejects the forgery" false
          (Threshold_coin.verify_share pub ~name forged);
        Alcotest.(check bool) "shifted coin share rejected" false
          (Verify.coin_share rt ~group:"forge" ~name forged));

    Alcotest.test_case
      "shifted decryption share: a cached share key is not reusable" `Quick
      (fun () ->
        let c = Util.cluster ~seed:"forge-dec" () in
        let rt = Cluster.runtime c 0 and r1 = Cluster.runtime c 1 in
        let pub = rt.Runtime.keys.Dealer.enc_pub in
        let rec pick i =
          let ct =
            Threshold_enc.encrypt ~drbg:r1.Runtime.drbg pub
              ~label:(Printf.sprintf "forge-%d" i) "plaintext"
          in
          match
            Threshold_enc.dec_share ~drbg:r1.Runtime.drbg pub
              r1.Runtime.keys.Dealer.enc_share ct
          with
          | None -> Alcotest.fail "honest ciphertext refused"
          | Some s ->
            (match
               shift_byte s.Threshold_enc.u_i s.Threshold_enc.proof.Dleq.a1
             with
             | Some (u_i, a1) ->
               (ct, s,
                { s with
                  Threshold_enc.u_i;
                  proof = { s.Threshold_enc.proof with Dleq.a1 } })
             | None -> pick (i + 1))
        in
        let ct, honest, forged = pick 0 in
        Alcotest.(check bool) "honest share" true
          (Verify.enc_dec_share rt ~group:"forge" ~ct honest);
        Alcotest.(check bool) "one-shot verifier rejects the forgery" false
          (Threshold_enc.verify_dec_share pub ct forged);
        Alcotest.(check bool) "shifted decryption share rejected" false
          (Verify.enc_dec_share rt ~group:"forge" ~ct forged));
  ]

(* --- staged statements accept exactly what the one-shot verifiers do --- *)

let flip_byte (s : string) (i : int) : string =
  let b = Bytes.of_string s in
  let i = i mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

(* The assembled multi-signature framing ([Multi_sig.assemble]'s), for
   certificates [assemble] refuses to build: short or with a duplicate. *)
let encode_multi (l : Tsig.share list) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "%04d" (List.length l));
  List.iter
    (function
      | Tsig.Multi_share m ->
        Buffer.add_string buf
          (Printf.sprintf "%04d%08d" m.Multi_sig.origin
             (String.length m.Multi_sig.signature));
        Buffer.add_string buf m.Multi_sig.signature
      | Tsig.Shoup_share _ -> ())
    l;
  Buffer.contents buf

(* A random sequence of share and certificate checks through one party's
   Verify seam (its staged statements and share cache persist across the
   sequence), each compared with the one-shot verifier.  Operation
   [(kind, s, x)] works on statement [s mod 3] (two contexts); the kinds
   cover honest items, flipped bytes, components verified before under
   another statement or another key, duplicate origins and certificates one
   component short. *)
let staged_equivalence (scheme : Config.tsig_scheme)
    (ops : (int * int * int) list) : bool =
  let c = Util.cluster ~seed:"staged-eq" ~tsig_scheme:scheme () in
  let rt = Cluster.runtime c 0 in
  let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
  let k = Tsig.k pub in
  let stmts = [| ("staged-a", "m0"); ("staged-a", "m1"); ("staged-b", "m0") |] in
  let shares =
    Array.map
      (fun (ctx, msg) ->
        Array.init 4 (fun i ->
          let r = Cluster.runtime c i in
          Tsig.release ~drbg:r.Runtime.drbg r.Runtime.keys.Dealer.bc_tsig ~ctx
            msg))
      stmts
  in
  let relabel (sh : Tsig.share) : Tsig.share =
    let o = (Tsig.share_origin sh mod 4) + 1 in
    match sh with
    | Tsig.Multi_share m -> Tsig.Multi_share { m with Multi_sig.origin = o }
    | Tsig.Shoup_share m -> Tsig.Shoup_share { m with Threshold_sig.origin = o }
  in
  let flip (sh : Tsig.share) (x : int) : Tsig.share =
    match sh with
    | Tsig.Multi_share m ->
      Tsig.Multi_share
        { m with Multi_sig.signature = flip_byte m.Multi_sig.signature x }
    | Tsig.Shoup_share m ->
      Tsig.Shoup_share
        { m with Threshold_sig.x_i = Bignum.Nat.add m.Threshold_sig.x_i Bignum.Nat.one }
  in
  List.for_all
    (fun (kind, s, x) ->
      let s = s mod 3 in
      let ctx, msg = stmts.(s) in
      let mine = shares.(s) and other = shares.((s + 1) mod 3) in
      let honest = Array.to_list mine in
      let share_case sh =
        Verify.tsig_share rt ~pub ~ctx msg sh = Tsig.verify_share pub ~ctx msg sh
      in
      let sig_case signature =
        Verify.tsig_signature rt ~pub ~ctx ~signature msg
        = Tsig.verify pub ~ctx ~signature msg
      in
      (* [assemble] keeps the first k distinct origins of its list. *)
      let cert l = sig_case (Tsig.assemble pub ~ctx msg l) in
      let sh = mine.(x mod 4) in
      match kind mod 10, scheme with
      | 0, _ -> share_case sh
      | 1, _ -> share_case (flip sh x)
      | 2, _ -> share_case other.(x mod 4)
      | 3, _ -> share_case (relabel sh)
      | 4, _ -> cert honest
      | 5, Config.Multi -> sig_case (encode_multi (List.filteri (fun i _ -> i < k - 1) honest))
      | 5, Config.Shoup ->
        let sg = Tsig.assemble pub ~ctx msg honest in
        sig_case (String.sub sg 0 (String.length sg - 1))
      | 6, Config.Multi ->
        sig_case (encode_multi (List.hd honest :: List.filteri (fun i _ -> i < k - 1) honest))
      | 6, Config.Shoup ->
        (* a certificate that passed under another statement *)
        let octx, omsg = stmts.((s + 1) mod 3) in
        sig_case (Tsig.assemble pub ~ctx:octx omsg (Array.to_list other))
      | 7, _ -> cert (other.(x mod 4) :: honest)
      | 8, _ -> cert (relabel sh :: honest)
      | _ -> sig_case (flip_byte (Tsig.assemble pub ~ctx msg honest) (x + 4)))
    ops

let ops_arb =
  QCheck.(list_of_size (Gen.int_range 1 40) (triple small_nat small_nat small_nat))

(* Mirrors the INIT wire format and signed statement of atomic_channel.ml
   (an entry is the signer, the (origin, seq, payload) items and the
   signature; the statement binds pid, round, signer and the items'
   encoding), to hand-craft INIT vectors. *)
let enc_items (items : (int * int * string) list) : string =
  Wire.encode (fun b ->
    Wire.Enc.list b
      (fun b (o, q, p) -> Wire.Enc.int b o; Wire.Enc.int b q; Wire.Enc.bytes b p)
      items)

let sign_init (c : Cluster.t) ~(pid : string) ~(round : int) ~(signer : int)
    (items : (int * int * string) list) : string =
  let stmt =
    Printf.sprintf "abc-init|%s|%d|%d|%s" pid round signer
      (Hashes.Sha256.digest (enc_items items))
  in
  Rsa.sign (Cluster.runtime c signer).Runtime.keys.Dealer.sign_sk ~ctx:pid stmt

let enc_entry (b : Wire.Enc.t) (signer, items, signature) : unit =
  Wire.Enc.int b signer;
  Wire.Enc.list b
    (fun b (o, q, p) -> Wire.Enc.int b o; Wire.Enc.int b q; Wire.Enc.bytes b p)
    items;
  Wire.Enc.bytes b signature

let staged_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:25
         ~name:"staged = one-shot verification (multi-signatures)" ops_arb
         (staged_equivalence Config.Multi));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:6
         ~name:"staged = one-shot verification (Shoup)" ops_arb
         (staged_equivalence Config.Shoup));

    Alcotest.test_case "Rsa.verify_prehashed = Rsa.verify after passes"
      `Quick (fun () ->
        let keys =
          Array.init 2 (fun i ->
            Rsa.keygen ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "rsa-%d" i))
              ~bits:256 ())
        in
        let ph = Rsa.prehash ~ctx:"c" "m" in
        let s0 = Rsa.sign keys.(0) ~ctx:"c" "m" in
        let check pk signature =
          Alcotest.(check bool) "staged = one-shot"
            (Rsa.verify pk ~ctx:"c" ~signature "m")
            (Rsa.verify_prehashed pk ph ~signature)
        in
        let pk0 = keys.(0).Rsa.pub and pk1 = keys.(1).Rsa.pub in
        check pk0 s0;
        (* the same signature under another key, after it passed *)
        check pk1 s0;
        check pk0 (flip_byte s0 3);
        check pk0 s0;
        Alcotest.(check string) "sign_prehashed = sign" s0
          (Rsa.sign_prehashed keys.(0) (Rsa.prehash ~ctx:"c" "m")));

    Alcotest.test_case
      "INIT reuse: only an entry equal to the pooled one is reused" `Quick
      (fun () ->
        let c = Util.cluster ~seed:"init-reuse" () in
        let pid = "abc-reuse" in
        let rt = Cluster.runtime c 0 in
        let ch = Atomic_channel.create rt ~pid ~on_deliver:(fun ~sender:_ _ -> ()) () in
        let items1 = [ (1, 0, "\x01one") ] in
        let sig1 = sign_init c ~pid ~round:0 ~signer:1 items1 in
        (* Signer 1's INIT for round 0 enters party 0's pool. *)
        let handler = Hashtbl.find rt.Runtime.handlers pid in
        handler ~src:1
          (Wire.encode (fun b ->
             Wire.Enc.u8 b 0;
             Wire.Enc.int b 0;
             enc_entry b (1, items1, sig1)));
        let items2 = [ (2, 0, "\x01two") ] in
        let e2 = (2, items2, sign_init c ~pid ~round:0 ~signer:2 items2) in
        let batch entries =
          Wire.encode (fun b -> Wire.Enc.list b enc_entry entries)
        in
        let counter name =
          let m = Trace.Ctx.metrics rt.Runtime.trace in
          match Trace.Metrics.find_counter m ("p0/" ^ name) with
          | Some x -> Trace.Metrics.value x
          | None -> 0.0
        in
        (* The pooled signature over different items: a one-shot check
           rejects it, so the batch must not be adopted. *)
        let other = [ (1, 0, "\x01ONE") ] in
        let stmt_other =
          Printf.sprintf "abc-init|%s|%d|%d|%s" pid 0 1
            (Hashes.Sha256.digest (enc_items other))
        in
        Alcotest.(check bool) "one-shot rejects" false
          (Rsa.verify rt.Runtime.keys.Dealer.sign_pks.(1) ~ctx:pid ~signature:sig1
             stmt_other);
        Atomic_channel.adopt_round ch ~round:0 ~batch:(batch [ (1, other, sig1); e2 ]);
        Alcotest.(check int) "forged batch not adopted" 0
          (Atomic_channel.current_round ch);
        (* The pooled items under a different signature: rejected too. *)
        Atomic_channel.adopt_round ch ~round:0
          ~batch:(batch [ (1, items1, flip_byte sig1 5); e2 ]);
        Alcotest.(check int) "re-signed batch not adopted" 0
          (Atomic_channel.current_round ch);
        let reused = counter "abc.init_reused" in
        (* The pooled entry itself is reused, without a second check. *)
        Atomic_channel.adopt_round ch ~round:0 ~batch:(batch [ (1, items1, sig1); e2 ]);
        Alcotest.(check int) "honest batch adopted" 1 (Atomic_channel.current_round ch);
        Alcotest.(check (float 0.0)) "pooled entry reused" (reused +. 1.0)
          (counter "abc.init_reused"));

    Alcotest.test_case
      "staged state does not survive unregister or crash" `Quick (fun () ->
        let c = Util.cluster ~seed:"staged-gc" ~tsig_scheme:Config.Multi () in
        let rt = Cluster.runtime c 0 in
        let sec = rt.Runtime.keys.Dealer.bc_tsig in
        let pub = Tsig.public_of_secret sec in
        let pid = "staged-pid" and stmt = "staged-stmt" in
        let counter name =
          let m = Trace.Ctx.metrics rt.Runtime.trace in
          match Trace.Metrics.find_counter m ("p0/" ^ name) with
          | Some x -> Trace.Metrics.value x
          | None -> 0.0
        in
        let shares =
          List.init 3 (fun i ->
            let r = Cluster.runtime c i in
            Tsig.release ~drbg:r.Runtime.drbg r.Runtime.keys.Dealer.bc_tsig ~ctx:pid stmt)
        in
        let signature = Tsig.assemble pub ~ctx:pid stmt shares in
        let replay what =
          let misses = counter "verify.stage_miss" in
          let cache_misses = counter "verify.cache_miss" in
          Alcotest.(check bool) (what ^ ": share") true
            (Verify.tsig_share rt ~pub ~ctx:pid stmt (List.hd shares));
          Alcotest.(check bool) (what ^ ": certificate") true
            (Verify.tsig_signature rt ~pub ~ctx:pid ~signature stmt);
          (misses, cache_misses)
        in
        Runtime.register rt ~pid (fun ~src:_ _ -> ());
        ignore (replay "first");
        Alcotest.(check int) "staged" 1 (Crypto.Statement.size rt.Runtime.staged);
        let misses, _ = replay "repeat" in
        Alcotest.(check (float 0.0)) "repeat is a stage hit" misses
          (counter "verify.stage_miss");
        Runtime.unregister rt ~pid;
        Alcotest.(check int) "unregister evicts" 0
          (Crypto.Statement.size rt.Runtime.staged);
        let misses, cache_misses = replay "after unregister" in
        Alcotest.(check (float 0.0)) "re-staged after unregister" (misses +. 1.0)
          (counter "verify.stage_miss");
        Alcotest.(check (float 0.0)) "re-verified after unregister"
          (cache_misses +. 2.0) (counter "verify.cache_miss");
        Runtime.crash rt;
        Alcotest.(check int) "crash clears" 0
          (Crypto.Statement.size rt.Runtime.staged);
        let misses, cache_misses = replay "after crash" in
        Alcotest.(check (float 0.0)) "re-staged after crash" (misses +. 1.0)
          (counter "verify.stage_miss");
        Alcotest.(check (float 0.0)) "re-verified after crash"
          (cache_misses +. 2.0) (counter "verify.cache_miss"));

    Alcotest.test_case "statement table: FIFO bound and group eviction" `Quick
      (fun () ->
        let t = Crypto.Statement.table ~cap:4 in
        for i = 1 to 40 do
          let ctx = Printf.sprintf "g%d" (i mod 3) in
          ignore (Crypto.Statement.stage t ~ctx (string_of_int i));
          if i mod 7 = 0 then Crypto.Statement.evict_group t "g1";
          if Crypto.Statement.size t > 4 then
            Alcotest.failf "table exceeded its capacity at %d" i
        done;
        let _, hit = Crypto.Statement.stage t ~ctx:"g1" "40" in
        Alcotest.(check bool) "live statement is a hit" true hit;
        let _, hit = Crypto.Statement.stage t ~ctx:"g0" "3" in
        Alcotest.(check bool) "evicted statement is staged again" false hit;
        Crypto.Statement.clear t;
        Alcotest.(check int) "cleared" 0 (Crypto.Statement.size t));
  ]

(* --- "once per party", pinned on a real run ---

   An n=4 atomic channel under load, traced: every host RSA verification of
   an INIT entry and every staging of a statement leaves an instant.  No
   (party, round, signer) entry may be verified twice and no
   (party, ctx, statement) staged twice; the counters must show the reuse
   paths engaged. *)
let once_tests =
  [
    Alcotest.test_case "n=4 atomic channel: INIT entries and statements once per party"
      `Quick (fun () ->
        let c =
          Util.cluster ~seed:"once" ~tsig_scheme:Config.Multi ~max_batch:16 ()
        in
        let events = ref [] in
        Cluster.set_sink c (Trace.Sink.Fn (fun e -> events := e :: !events));
        let chans =
          Array.init 4 (fun p ->
            Atomic_channel.create (Cluster.runtime c p) ~pid:"once"
              ~on_deliver:(fun ~sender:_ _ -> ()) ())
        in
        Array.iteri
          (fun p ch ->
            for i = 0 to 5 do
              Atomic_channel.send ch (Printf.sprintf "p%d-%d" p i)
            done)
          chans;
        ignore (Cluster.run c ~until:60.0);
        Array.iter
          (fun ch ->
            Alcotest.(check int) "all delivered" 24 (Atomic_channel.deliveries ch))
          chans;
        let seen = Hashtbl.create 256 in
        let str_arg (e : Trace.Event.t) k =
          match List.assoc_opt k e.Trace.Event.args with
          | Some (Trace.Event.Str s) -> s
          | Some (Trace.Event.Int i) -> string_of_int i
          | Some _ | None -> "?"
        in
        let cbc = ref 0 and inits = ref 0 in
        List.iter
          (fun (e : Trace.Event.t) ->
            let key =
              match e.Trace.Event.name, e.Trace.Event.cat with
              | "init_verify", "abc" ->
                incr inits;
                Some (Printf.sprintf "init %d %s %s" e.Trace.Event.party
                        (str_arg e "round") (str_arg e "signer"))
              | "stage", "verify" ->
                (* CBC instances of the MVBA are "<pid>/mv.<r>/p.<i>" *)
                if List.exists (String.equal "p")
                     (String.split_on_char '/' e.Trace.Event.pid
                      |> List.concat_map (String.split_on_char '.'))
                then incr cbc;
                Some (Printf.sprintf "stage %d %s %s" e.Trace.Event.party
                        e.Trace.Event.pid (str_arg e "stmt"))
              | _ -> None
            in
            match key with
            | Some k ->
              if Hashtbl.mem seen k then Alcotest.failf "done twice: %s" k;
              Hashtbl.replace seen k ()
            | None -> ())
          !events;
        if !inits = 0 || !cbc = 0 then
          Alcotest.fail "no INIT verification or staging was traced";
        for p = 0 to 3 do
          let v name = counter_value c p name in
          if v "abc.init_reused" < 1.0 then
            Alcotest.failf "party %d never reused a pooled INIT entry" p;
          if v "verify.stage_hit" < 1.0 then
            Alcotest.failf "party %d never reused a staged statement" p
        done);
  ]

let suite =
  equivalence_tests @ cache_tests @ determinism_tests @ cost_tests
  @ pregen_tests @ fallback_tests @ forgery_tests @ staged_tests @ once_tests
