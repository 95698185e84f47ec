(* The workloads: seeded inputs driven through the public API of an n=4,
   t=1 simulated SINTRA group on the uniform LAN topology.  Every run
   checks its own outputs through {!Gate}. *)

open Sintra

let n = 4
let t = 1

let cfg () : Config.t = Load.Sweep.sweep_cfg ~n ~t ~max_batch:256 ()

(* A cold key deal: Dealer.deal directly, so nothing is shared with an
   earlier run in the same process. *)
let deal ~(seed : string) : Dealer.t = Dealer.deal ~seed:("bench-dealer|" ^ seed) (cfg ())

let build ~(dealer : Dealer.t) ~(seed : string) : Cluster.t =
  let cfg = dealer.Dealer.cfg in
  let engine = Sim.Engine.create ~seed:("bench-engine|" ^ seed) () in
  let topo = Sim.Topology.uniform ~count:n () in
  let net = Sim.Net.create ~engine ~topo ~mac_keys:(Dealer.net_mac_keys dealer) in
  let runtimes =
    Array.init n (fun i ->
      Runtime.create ~engine ~net ~cfg ~keys:dealer.Dealer.parties.(i))
  in
  { Cluster.engine; net; cfg; dealer; runtimes }

(* --- load workloads --- *)

type channel = Atomic | Secure

type shape =
  | Open of { rate : float; parties : int list }
      (** Poisson arrivals at [rate] requests per virtual second across
          the listed parties, [rate × duration] requests in all *)
  | Closed of { clients : int }
      (** [clients] closed-loop clients per party, zero think time *)

type load = {
  channel : channel;
  shape : shape;
  duration : float;        (** virtual seconds of offered load (nominal for open loops) *)
  restart : bool;
  (** durable channels on every party; party 3 power-fails at a third of
      [duration] and restarts from its device at two thirds *)
  interval : int;          (** checkpoint interval (restart workloads) *)
}

let pid = "bench"
let victim = n - 1
let sample_every = 0.05     (* virtual seconds between channel samples *)
let catchup_poll = 0.001

(* Hooks a traced run installs; [none] for the measured runs. *)
type probe = {
  on_cluster : Cluster.t -> unit;
  around : (unit -> int) -> int;
  on_round : (round:int -> batch:string -> unit) option;
}

let none = { on_cluster = (fun _ -> ()); around = (fun f -> f ()); on_round = None }

type channel_samples = {
  inflight : float list;
  queue : float list;
  backlog_peak : int;
  orphans_peak : int;
  dropped_orphans : int;
}

type durable_info = {
  restore_ms : float;
  replayed : int;
  adopted : int;
  checkpoints : int;
  final_lag : int;
  dev0 : Store.Device.t;
}

type result = {
  seed : string;
  cost : Clock.sample;       (** host cost of Cluster.run *)
  events : int;
  rounds : int;              (** agreement rounds completed at party 0 *)
  payloads : int;            (** payloads delivered at party 0 *)
  vspan : float;             (** virtual time of party 0's last delivery *)
  latencies : float list;    (** submit→deliver at the issuing party *)
  issued : int;
  digest : string;           (** party 0's delivery digest *)
  catchup : float;           (** virtual seconds; 0 without a restart *)
  cluster : Cluster.t;
  samples : channel_samples;
  durable : durable_info option;
}

type chan = { send : string -> unit; atomic : Atomic_channel.t option }

let make_chan (load : load) (rt : Runtime.t) ~(on_deliver : sender:int -> string -> unit) : chan =
  match load.channel with
  | Atomic ->
    let ch = Atomic_channel.create rt ~pid ~on_deliver () in
    { send = Atomic_channel.send ch; atomic = Some ch }
  | Secure ->
    let ch = Secure_atomic_channel.create rt ~pid ~on_deliver () in
    { send = Secure_atomic_channel.send ch; atomic = None }

let orphans_queued (c : Cluster.t) : int =
  Array.fold_left
    (fun acc rt ->
      Hashtbl.fold (fun _ q acc -> acc + Queue.length q) rt.Runtime.orphans acc)
    0 c.Cluster.runtimes

let counter (c : Cluster.t) (name : string) : float =
  match Trace.Metrics.find_counter (Cluster.metrics c) name with
  | Some k -> Trace.Metrics.value k
  | None -> 0.0

(* Set up a cluster for [load]: channels (and durability) on every party.
   Returns the pieces the run needs; also the whole of a set-up probe. *)
type rig = {
  c : Cluster.t;
  chans : chan option array;
  durs : Durable.t list array;
  devs : Store.Device.t array;
  logs : Gate.log array;                (* reversed, current incarnation *)
  mutable pre_crash : Gate.log;         (* victim's log before the crash *)
  mutable restore_ms : float;
  mutable last0 : float;                (* virtual time of party 0's last delivery *)
  mutable restarted : bool;
  mutable adopt_marks : int list;       (* victim after the restart, reversed *)
  gen : Load.Gen.t;
}

let rig ~(dealer : Dealer.t) ~(seed : string) (load : load) : rig =
  let c = build ~dealer ~seed in
  let gen = Load.Gen.create ~engine:c.Cluster.engine () in
  let r =
    {
      c;
      chans = Array.make n None;
      durs = Array.make n [];
      devs = Array.init n (fun _ -> Store.Device.mem ());
      logs = Array.make n [];
      pre_crash = [];
      restore_ms = 0.0;
      last0 = 0.0;
      restarted = false;
      adopt_marks = [];
      gen;
    }
  in
  let make_party i =
    let rt = Cluster.runtime c i in
    let on_deliver ~sender payload =
      r.logs.(i) <- (sender, payload) :: r.logs.(i);
      if i = 0 then r.last0 <- Cluster.now c;
      if i = victim && r.restarted then
        r.adopt_marks <-
          List.fold_left (fun a d -> a + Durable.snapshots_adopted d) 0 r.durs.(i)
          :: r.adopt_marks;
      Load.Gen.deliver gen ~party:i payload
    in
    let ch = make_chan load rt ~on_deliver in
    r.chans.(i) <- Some ch;
    match ch.atomic with
    | Some a when load.restart ->
      let d, cost =
        Clock.measure (fun () ->
          Durable.attach rt ~chan:a ~pid ~dev:r.devs.(i) ~interval:load.interval ())
      in
      r.durs.(i) <- d :: r.durs.(i);
      r.restore_ms <- cost.Clock.cpu_s *. 1000.0
    | _ -> ()
  in
  for i = 0 to n - 1 do
    make_party i;
    if load.restart then Runtime.on_rebuild (Cluster.runtime c i) (fun () -> make_party i)
  done;
  r

let round_of (r : rig) (i : int) : int =
  match r.chans.(i) with
  | Some { atomic = Some a; _ } -> Atomic_channel.current_round a
  | _ -> -1

let run_load ?(probe = none) ~(dealer : Dealer.t) ~(seed : string) (load : load) : result =
  let r = rig ~dealer ~seed load in
  let c = r.c in
  let issued = ref [] in
  let submit p ~cause payload =
    issued := payload :: !issued;
    Cluster.inject ~cause c p (fun () ->
      match r.chans.(p) with Some ch -> ch.send payload | None -> ())
  in
  (match load.shape with
   | Open { rate; parties } ->
     (* Poisson arrivals at [rate] over the group until exactly
        rate × duration requests are issued, so every iteration does the
        same number.  The generators stop halfway between the last
        arrival and the next one of the merged streams, read ahead from
        identical copies. *)
     let share = rate /. float_of_int (List.length parties) in
     let stream p =
       Load.Arrival.poisson ~rate:share
         (Hashes.Drbg.fork (Hashes.Drbg.create ~seed:("bench-arrivals|" ^ seed)) (string_of_int p))
     in
     let ahead = Array.of_list (List.map stream parties) in
     let next = Array.map Load.Arrival.next_gap ahead in
     let total = int_of_float (Float.round (rate *. load.duration)) in
     let rec stop issued last =
       let i = ref 0 in
       Array.iteri (fun j at -> if at < next.(!i) then i := j) next;
       let at = next.(!i) in
       if issued = total then (last +. at) /. 2.0
       else begin
         next.(!i) <- at +. Load.Arrival.next_gap ahead.(!i);
         stop (issued + 1) at
       end
     in
     let until = stop 0 0.0 in
     List.iter
       (fun p -> Load.Gen.add_open r.gen ~party:p ~arrival:(stream p) ~until ~submit:(submit p))
       parties
   | Closed { clients } ->
     for p = 0 to n - 1 do
       for _ = 1 to clients do
         Load.Gen.add_closed r.gen ~party:p ~think:0.0 ~until:load.duration
           ~submit:(submit p)
       done
     done);
  (match (probe.on_round, r.chans.(0)) with
   | Some f, Some { atomic = Some a; _ } when not load.restart -> Atomic_channel.set_round_hook a f
   | _ -> ());
  (* Party 0's channel, sampled at a fixed virtual interval while load is
     offered (the same events run traced or not). *)
  let inflight = ref [] and queue = ref [] and backlog = ref 0 and orphans = ref 0 in
  let rec sample () =
    (match r.chans.(0) with
     | Some { atomic = Some a; _ } ->
       inflight := float_of_int (Atomic_channel.inflight_rounds a) :: !inflight;
       queue := float_of_int (Atomic_channel.queue_depth a) :: !queue;
       backlog := max !backlog (Atomic_channel.backlog_rounds a)
     | _ -> ());
    orphans := max !orphans (orphans_queued c);
    let next = Cluster.now c +. sample_every in
    if next <= load.duration then Cluster.at c ~time:next sample
  in
  Cluster.at c ~time:0.0 sample;
  let catchup = ref Float.nan in
  if load.restart then begin
    Cluster.at c ~time:(load.duration /. 3.0) (fun () ->
      Runtime.crash (Cluster.runtime c victim);
      r.chans.(victim) <- None;
      r.pre_crash <- r.logs.(victim);
      r.logs.(victim) <- []);
    Cluster.at c ~time:(2.0 *. load.duration /. 3.0) (fun () ->
      let target = round_of r 0 in
      let restarted = Cluster.now c in
      r.restarted <- true;
      Runtime.recover (Cluster.runtime c victim);
      (* Polling stops once nothing else is queued: no event is left that
         could move the restarted party, and [catchup] stays NaN. *)
      let rec poll () =
        if round_of r victim >= target then catchup := Cluster.now c -. restarted
        else if Sim.Engine.pending c.Cluster.engine > 0 then
          Cluster.at c ~time:(Cluster.now c +. catchup_poll) poll
      in
      poll ())
  end;
  probe.on_cluster c;
  let events, cost = Clock.measure (fun () -> probe.around (fun () -> Cluster.run c)) in
  (* --- correctness gate --- *)
  let log i = List.rev r.logs.(i) in
  let log0 = log 0 in
  let survivors = if load.restart then [ 0; 1; 2 ] else [ 0; 1; 2; 3 ] in
  Gate.identical (List.map (fun i -> (i, log i)) survivors);
  let issued = List.rev !issued in
  Gate.exactly_once ~issued log0;
  if List.length log0 <> List.length issued then
    Gate.fail "party 0 delivered %d payloads for %d issued requests" (List.length log0)
      (List.length issued);
  if Load.Gen.completed r.gen <> List.length issued then
    Gate.fail "%d of %d requests completed at their issuing party"
      (Load.Gen.completed r.gen) (List.length issued);
  if load.restart then begin
    Gate.contiguous_slice ~what:"restarted party before the crash" ~reference:log0
      (List.rev r.pre_crash);
    Gate.slices_across_snapshots ~what:"restarted party after the restart" ~reference:log0
      (log victim, List.rev r.adopt_marks);
    if Float.is_nan !catchup then Gate.fail "restarted party never caught up"
  end;
  let rounds =
    match r.chans.(0) with
    | Some { atomic = Some a; _ } -> Atomic_channel.rounds_completed a
    | _ -> int_of_float (counter c "p0/abc.rounds")
  in
  if rounds <= 0 then Gate.fail "no agreement round completed";
  let durable =
    if not load.restart then None
    else
      match (r.durs.(0), r.durs.(victim)) with
      | d0 :: _, dv :: _ ->
        Some
          {
            restore_ms = r.restore_ms;
            replayed = Durable.replayed_rounds dv;
            adopted = Durable.snapshots_adopted dv;
            checkpoints = Durable.checkpoints d0;
            final_lag = round_of r 0 - round_of r victim;
            dev0 = r.devs.(0);
          }
      | _ -> Gate.fail "durability controllers missing"
  in
  {
    seed;
    cost;
    events;
    rounds;
    payloads = List.length log0;
    vspan = r.last0;
    latencies = Load.Gen.latencies r.gen;
    issued = List.length issued;
    digest = Gate.digest log0;
    catchup = (if load.restart then !catchup else 0.0);
    cluster = c;
    samples =
      {
        inflight = !inflight;
        queue = !queue;
        backlog_peak = !backlog;
        orphans_peak = !orphans;
        dropped_orphans =
          Array.fold_left (fun a rt -> a + rt.Runtime.dropped_orphans) 0 c.Cluster.runtimes;
      };
    durable;
  }

(* --- schedule exploration --- *)

type sweep = {
  seeds : int;
  seed_ms : float list;       (** host ms per seed, oracles included *)
  sweep_cost : Clock.sample;
  vopr_events : int;          (** simulation events, all seeds *)
}

let vopr_kind = Vopr.Oracle.Secure

(* One unmutated run of the explorer's workload: the first in a process
   pays the explorer's own (memoized) key deal. *)
let vopr_run ~(seed : string) : unit = ignore (Vopr.Workload.run ~kind:vopr_kind ~seed [])

let explore ~(base : string) ~(seeds : int) : sweep =
  let marks = ref [] in
  let events = ref 0 in
  let runner ~seed sched =
    let obs = Vopr.Workload.run ~kind:vopr_kind ~seed sched in
    events := !events + obs.Vopr.Oracle.events;
    obs
  in
  let report, cost =
    Clock.measure (fun () ->
      Vopr.Explorer.explore
        ~progress:(fun _ -> marks := Clock.cpu () :: !marks)
        ~runner ~oracles:(Vopr.Oracle.all vopr_kind)
        ~generate:(fun ~run_seed ->
          Vopr.Explorer.schedule_of ~run_seed ~n ~max_faulty:t
            ~allow_equiv:(Vopr.Workload.byz_supported vopr_kind))
        ~seed:base ~seeds ())
  in
  let finish = Clock.cpu () in
  (match report.Vopr.Explorer.failures with
   | [] -> ()
   | f :: _ ->
     Gate.fail "vopr seed %s failed oracle %s: %s" f.Vopr.Explorer.run_seed
       f.Vopr.Explorer.outcome.Vopr.Explorer.oracle
       f.Vopr.Explorer.outcome.Vopr.Explorer.reason);
  let rec gaps acc = function
    | later :: (earlier :: _ as rest) -> gaps (((later -. earlier) *. 1000.0) :: acc) rest
    | [ _ ] | [] -> acc
  in
  let seed_ms = gaps [] (finish :: !marks) in
  { seeds; seed_ms; sweep_cost = cost; vopr_events = !events }
