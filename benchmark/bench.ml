(* The benchmark: four workloads, an untraced run reporting end-to-end
   metrics and a traced run reporting per-layer metrics. *)

type workload = {
  name : string;
  load : Work.load;
  min_iters : int;      (* iterations always run; virtual metrics use these *)
  vopr_seeds : int;     (* explorer seeds per iteration (vopr-secure) *)
}

let everyone = [ 0; 1; 2; 3 ]

let workloads ~(smoke : bool) : workload list =
  let scale d = if smoke then d /. 5.0 else d in
  let iters k = if smoke then 1 else k in
  let atomic shape duration =
    { Work.channel = Work.Atomic; shape; duration = scale duration; restart = false; interval = 0 }
  in
  [
    { name = "trickle"; load = atomic (Work.Open { rate = 8.0; parties = everyone }) 10.0;
      min_iters = iters 10; vopr_seeds = 0 };
    { name = "saturate"; load = atomic (Work.Closed { clients = 64 }) 3.0;
      min_iters = iters 8; vopr_seeds = 0 };
    { name = "recover";
      load =
        { (atomic (Work.Open { rate = 8.0; parties = [ 0; 1; 2 ] }) 15.0) with
          restart = true; interval = 8 };
      min_iters = iters 10; vopr_seeds = 0 };
    { name = "vopr-secure";
      load =
        { (atomic (Work.Open { rate = 8.0; parties = everyone }) 10.0) with
          channel = Work.Secure };
      min_iters = iters 9; vopr_seeds = (if smoke then 2 else 4) };
  ]

let find ~(smoke : bool) (name : string) : workload option =
  List.find_opt (fun w -> w.name = name) (workloads ~smoke)

type metric = { name : string; value : float; unit_ : string; samples : int }

type outcome = {
  attempted : int;
  metrics : metric list;
  spans : Tracer.t option;
  run_host_s : float;        (* traced run: host time of the traced Cluster.run *)
  run_span : int;            (* traced run: id of the root span of that run *)
}

let seed_string (w : workload) (seed : int) (what : string) : string =
  Printf.sprintf "%s|%d|%s" w.name seed what

(* --- set-up --- *)

let setup_reps = 9

(* One cold set-up: key deal, cluster build, channels (and Durable.attach
   on every party for the restart workload); on vopr-secure also the
   explorer workload's first run, which pays its own key deal.  Meant to
   run in a fresh process.  Normalized host seconds (see [e2e]). *)
let setup_once (w : workload) ~(seed : int) ~(rep : int) : float =
  let s = seed_string w seed (Printf.sprintf "setup%d" rep) in
  let (), cost =
    Clock.measure (fun () ->
      let dealer = Work.deal ~seed:s in
      ignore (Work.rig ~dealer ~seed:s w.load);
      if w.vopr_seeds > 0 then Work.vopr_run ~seed:s)
  in
  Clock.normalized cost.Clock.cpu_s ~reference_ms:(Clock.reference_ms ())

(* --- untraced run: end-to-end metrics --- *)

let per (a : float) (b : int) : float = a /. float_of_int b

(* What [e2e] keeps of an iteration.  The cluster and its logs are left
   unreachable, so the heap high-water mark is one iteration's peak, not
   the end states of every earlier one. *)
type counts = {
  cost : Clock.sample;
  events : int;
  rounds : int;
  payloads : int;
  vspan : float;
  latencies : float list;
  issued : int;
}

let counts (r : Work.result) : counts =
  {
    cost = r.Work.cost;
    events = r.Work.events;
    rounds = r.Work.rounds;
    payloads = r.Work.payloads;
    vspan = r.Work.vspan;
    latencies = r.Work.latencies;
    issued = r.Work.issued;
  }

let e2e (w : workload) ~(seed : int) ~(seconds : float) ~(smoke : bool)
    ~(setup : rep:int -> float) : outcome =
  let reps = if smoke then 1 else setup_reps in
  let setups = List.init reps (fun rep -> setup ~rep) in
  let dealer = Work.deal ~seed:(seed_string w seed "keys") in
  let started = Clock.wall () in
  (* The heap high-water mark after the pooled iterations, which run the
     same allocations whatever the host speed. *)
  let peak_heap = ref 0.0 in
  (* The reference workload runs before every iteration and after the
     last; iteration i is normalized by the mean of the two around it. *)
  let refs = ref [ Clock.reference_ms () ] in
  let rec loop i acc =
    if i >= w.min_iters && Clock.wall () -. started >= seconds then List.rev acc
    else begin
      Gc.compact ();
      let sub = seed_string w seed (string_of_int i) in
      let r = counts (Work.run_load ~dealer ~seed:sub w.load) in
      let sweep =
        if w.vopr_seeds > 0 then Some (Work.explore ~base:sub ~seeds:w.vopr_seeds) else None
      in
      if i = w.min_iters - 1 then peak_heap := Clock.peak_heap_mb ();
      refs := Clock.reference_ms () :: !refs;
      loop (i + 1) ((r, sweep) :: acc)
    end
  in
  let iters = loop 0 [] in
  let k = List.length iters in
  let runs = List.map fst iters in
  let sweeps = List.filter_map snd iters in
  let first l = List.filteri (fun i _ -> i < w.min_iters) l in
  let measured = first runs in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let lat = List.concat_map (fun (r : counts) -> r.latencies) measured in
  let med f = Stats.median (List.map f measured) in
  let words (r : counts) = r.cost.Clock.words in
  let count f = sum (fun r -> float_of_int (f r)) measured in
  let events = count (fun r -> r.events) and rounds = count (fun r -> r.rounds) in
  let payloads = count (fun r -> r.payloads) in
  (* Host time.  The host shares its hardware with other work, which
     moves its speed by tens of percent within seconds and over minutes.
     Each iteration's host time per simulation event is normalized by the
     reference workload timed around it, and the median is taken; it is
     then scaled by exact counts from the measured iterations (events per
     round, per payload, per seed), which depend only on the seed. *)
  let around =
    let r = Array.of_list (List.rev !refs) in
    List.init k (fun i -> (r.(i) +. r.(i + 1)) /. 2.0)
  in
  let per_event cpu events reference_ms =
    Clock.normalized cpu ~reference_ms /. float_of_int events
  in
  let s_per_event =
    Stats.median
      (List.map2 (fun (r : counts) rf -> per_event r.cost.Clock.cpu_s r.events rf) runs around)
  in
  let seeds_per_s =
    match sweeps with
    | [] -> 1.0 /. (s_per_event *. events /. float_of_int (List.length measured))
    | _ ->
      let sweep_s_per_event =
        Stats.median
          (List.map2
             (fun s rf -> per_event s.Work.sweep_cost.Clock.cpu_s s.Work.vopr_events rf)
             sweeps around)
      in
      let swept = first sweeps in
      let seed_events =
        sum (fun s -> float_of_int s.Work.vopr_events) swept
        /. sum (fun s -> float_of_int s.Work.seeds) swept
      in
      1.0 /. (sweep_s_per_event *. seed_events)
  in
  let m name value unit_ samples = { name; value; unit_; samples } in
  let metrics =
    [
      m "setup_s" (Stats.median setups) "s" reps;
      m "host_ms_per_round" (1000.0 *. s_per_event *. events /. rounds) "ms" k;
      m "host_us_per_payload" (1e6 *. s_per_event *. events /. payloads) "us" k;
      m "alloc_mwords_per_round" (med (fun r -> per (words r) r.rounds /. 1e6)) "Mwords"
        w.min_iters;
      (match first sweeps with
       | [] -> m "alloc_mwords_per_seed" (med (fun r -> words r /. 1e6)) "Mwords" w.min_iters
       | swept ->
         m "alloc_mwords_per_seed"
           (sum (fun s -> s.Work.sweep_cost.Clock.words) swept
            /. sum (fun s -> float_of_int s.Work.seeds) swept /. 1e6)
           "Mwords" w.min_iters);
      m "peak_heap_mb" !peak_heap "MB" w.min_iters;
      m "latency_p50_s" (Stats.quantile lat 0.5) "s" (List.length lat);
      m "latency_p95_s" (Stats.quantile lat 0.95) "s" (List.length lat);
      m "saturation_req_s" (payloads /. sum (fun (r : counts) -> r.vspan) measured) "req/s"
        (int_of_float payloads);
      m "vopr_seeds_per_s" seeds_per_s "seeds/s" (match sweeps with [] -> k | _ -> List.length sweeps);
    ]
  in
  let attempted =
    List.fold_left (fun a (r : counts) -> a + r.issued) 0 runs
    + List.fold_left (fun a s -> a + s.Work.seeds) 0 sweeps
  in
  { attempted; metrics; spans = None; run_host_s = 0.0; run_span = -1 }

(* --- traced run: per-layer metrics --- *)

let traced (w : workload) ~(seed : int) ~(seconds : float) ~(run_id : string) ~(smoke : bool) :
    outcome =
  let dealer = Work.deal ~seed:(seed_string w seed "keys") in
  let sub = seed_string w seed "0" in
  (* Instrument one run: host-time sink, frame tap, party 0's decided
     batches and spans, all under a fresh recorder. *)
  let instrumented () =
    let tr = Tracer.create ~run_id in
    let attribution, sink = Tracer.attribute tr in
    let frames = Tracer.frames () in
    let rounds_seen = ref [] in
    let run_span = ref (-1) in
    let probe =
      {
        Work.on_cluster =
          (fun c ->
            Sintra.Cluster.set_sink c sink;
            Sintra.Cluster.set_intercept c (Tracer.tap frames));
        around =
          (fun run ->
            Tracer.span tr "sintra.run" (fun id ->
              run_span := id;
              Tracer.start attribution ~parent:id;
              let events = run () in
              Tracer.finish attribution;
              events));
        on_round =
          Some (fun ~round ~batch -> rounds_seen := Store.Log.Round { round; batch } :: !rounds_seen);
      }
    in
    Gc.compact ();
    let r = Work.run_load ~probe ~dealer ~seed:sub w.load in
    (r, tr, attribution, frames, List.rev !rounds_seen, !run_span)
  in
  let untraced () =
    Gc.compact ();
    Work.run_load ~dealer ~seed:sub w.load
  in
  (* Two untraced and two traced runs of one seed, alternating, each
     normalized by the reference workload timed around it (as in [e2e]);
     the tracing overhead compares the lesser of each pair. *)
  let ref0 = Clock.reference_ms () in
  let normalized before (x : Work.result) =
    let after = Clock.reference_ms () in
    (after, Clock.normalized x.Work.cost.Clock.cpu_s ~reference_ms:((before +. after) /. 2.0))
  in
  let plain = untraced () in
  let ref1, u1 = normalized ref0 plain in
  let r, tr, attribution, frames, rounds_seen, run_span = instrumented () in
  let ref2, t1 = normalized ref1 r in
  let plain2 = untraced () in
  let ref3, u2 = normalized ref2 plain2 in
  let r2, _, _, _, _, _ = instrumented () in
  let _, t2 = normalized ref3 r2 in
  List.iter
    (fun (x : Work.result) ->
      Gate.same_digest ~what:"traced and untraced runs of one seed" plain.Work.digest x.Work.digest)
    [ r; plain2; r2 ];
  let overhead = (Float.min t1 t2 /. Float.min u1 u2) -. 1.0 in
  let rounds = r.Work.rounds in
  let c = r.Work.cluster in
  ignore (Sintra.Cluster.publish_metrics c);
  let counter name = Work.counter c name in
  let per_round v = v /. float_of_int rounds in
  let budget = if smoke then 0.01 else Float.min 0.25 (Float.max 0.02 (seconds /. 80.0)) in
  let layers =
    Tracer.span tr "layers" (fun parent ->
      let lc = { Layers.tr; parent; budget } in
      let records, log =
        match r.Work.durable with
        | Some d ->
          let log = Store.Device.contents d.Work.dev0 in
          let rs =
            List.filter
              (function Store.Log.Round _ -> true | _ -> false)
              (Store.Log.replay_string log).Store.Log.records
          in
          (rs, Some log)
        | None -> (rounds_seen, None)
      in
      let wal_bytes =
        match records with
        | [] -> 0.0
        | _ ->
          Stats.mean (List.map (fun rc -> float_of_int (String.length (Store.Log.frame rc))) records)
      in
      Layers.bignum lc dealer @ Layers.crypto lc dealer
      @ Layers.wire lc dealer (Tracer.captured frames)
      @ [ ("store.wal_bytes_per_round", wal_bytes, "bytes") ]
      @ Layers.store lc ~records ~log
      @ Layers.instances lc dealer ~reps:(if smoke then 1 else 5))
  in
  let seed_ms =
    if w.vopr_seeds > 0 then
      (Work.explore ~base:(seed_string w seed "traced-sweep") ~seeds:(2 * w.vopr_seeds)).Work.seed_ms
    else []
  in
  let q xs p = match xs with [] -> 0.0 | _ -> Stats.quantile xs p in
  let s = r.Work.samples in
  let hits = counter "p0/verify.cache_hit" and misses = counter "p0/verify.cache_miss" in
  let batch_mean =
    match Trace.Metrics.find_hist (Sintra.Cluster.metrics c) "p0/verify.batch_size" with
    | Some h -> Trace.Metrics.hist_mean h
    | None -> 0.0
  in
  let durable f = match plain.Work.durable with Some d -> f d | None -> 0.0 in
  let gc = plain.Work.cost in
  let counts =
    [
      ("crypto.exps_per_round", per_round (counter "p0/crypto.exps"), "count");
      ("crypto.fixed_per_round", per_round (counter "p0/crypto.fixed"), "count");
      ("verify.cache_hit_ratio", (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0), "ratio");
      ("verify.batch_size_mean", batch_mean, "count");
      ("sim.events_per_round", per_round (float_of_int r.Work.events), "count");
      ("sim.host_ns_per_event", 1e9 *. gc.Clock.cpu_s /. float_of_int plain.Work.events, "ns");
      ("net.msgs_per_round", per_round (counter "p0/net.sent_msgs"), "count");
      ("net.bytes_per_round", per_round (counter "p0/net.sent_bytes"), "bytes");
    ]
    @ List.map
        (fun fam ->
          (Printf.sprintf "sintra.%s.host_ms_per_round" fam,
           per_round (Tracer.total_ms attribution fam), "ms"))
        Tracer.families
    @ [
      ("sintra.cpu_charged_ms_per_round", per_round (1000.0 *. counter "p0/cpu.charged_s"), "ms");
      ("abc.payloads_per_round", per_round (float_of_int r.Work.payloads), "count");
      ("abc.inflight_rounds_mean", Stats.mean s.Work.inflight, "count");
      ("abc.queue_depth_p95", q s.Work.queue 0.95, "count");
      ("abc.backlog_rounds_peak", float_of_int s.Work.backlog_peak, "count");
      ("runtime.orphans_buffered_peak", float_of_int s.Work.orphans_peak, "count");
      ("runtime.dropped_orphans", float_of_int s.Work.dropped_orphans, "count");
      ("durable.restore_ms", durable (fun d -> d.Work.restore_ms), "ms");
      ("durable.replayed_rounds", durable (fun d -> float_of_int d.Work.replayed), "count");
      ("durable.snapshots_adopted", durable (fun d -> float_of_int d.Work.adopted), "count");
      ("durable.checkpoints", durable (fun d -> float_of_int d.Work.checkpoints), "count");
      ("durable.final_lag_rounds", durable (fun d -> float_of_int d.Work.final_lag), "count");
      ("gc.minor_collections_per_round", per_round (float_of_int gc.Clock.minor_gcs), "count");
      ("gc.major_collections_per_round", per_round (float_of_int gc.Clock.major_gcs), "count");
      ("gc.promoted_words_per_round", per_round gc.Clock.promoted, "words");
      ("vopr.seed_ms_p50", q seed_ms 0.5, "ms");
      ("vopr.seed_ms_p95", q seed_ms 0.95, "ms");
      ("latency_p99_s", q r.Work.latencies 0.99, "s");
      ("catchup_s", r.Work.catchup, "s");
      ("failed_frac", 0.0, "ratio");
      ("trace.overhead_ratio", overhead, "ratio");
    ]
  in
  let samples name =
    match name with
    | "latency_p99_s" -> List.length r.Work.latencies
    | "abc.inflight_rounds_mean" | "abc.queue_depth_p95" -> List.length s.Work.inflight
    | "vopr.seed_ms_p50" | "vopr.seed_ms_p95" -> List.length seed_ms
    | _ -> 1
  in
  let metrics =
    List.map
      (fun (name, value, unit_) -> { name; value; unit_; samples = samples name })
      (counts @ layers)
  in
  {
    attempted = (4 * r.Work.issued) + List.length seed_ms;
    metrics;
    spans = Some tr;
    run_host_s = r.Work.cost.Clock.cpu_s;
    run_span;
  }

let run (w : workload) ~(seed : int) ~(seconds : float) ~(trace : bool) ~(run_id : string)
    ~(smoke : bool) ~(setup : rep:int -> float) : outcome =
  if trace then traced w ~seed ~seconds ~run_id ~smoke else e2e w ~seed ~seconds ~smoke ~setup
