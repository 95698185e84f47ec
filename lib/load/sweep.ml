(* The throughput sweep driver: batched vs unbatched atomic broadcast under
   open-loop (offered-load ladder) and closed-loop (saturation) clients. *)

open Sintra

type point = {
  offered_per_s : float;
  issued : int;
  completed : int;
  delivered : int;
  throughput_per_s : float;
  latency_mean_s : float;
  latency_p50_s : float;
  latency_p90_s : float;
}

type series = {
  n : int;
  t : int;
  batched : bool;
  points : point list;
  saturation : point;
  rounds : int;
}

type report = {
  smoke : bool;
  duration_s : float;
  series : series list;
}

let sweep_cfg ?pipeline_depth ?adaptive_batch ~(n : int) ~(t : int)
    ~(max_batch : int) () : Config.t =
  Config.make ~max_batch ?pipeline_depth ?adaptive_batch
    ~perm_mode:Config.Random_local ~n ~t ()

let make_cluster ~(seed : string) (cfg : Config.t) : Cluster.t =
  Cluster.of_dealer ~engine_seed:("load-engine|" ^ seed)
    ~topo:(Sim.Topology.uniform ~count:cfg.Config.n ())
    (Dealer.memo ~seed:"load-dealer" cfg)

let quantile (sorted : float array) (q : float) : float =
  let len = Array.length sorted in
  if len = 0 then 0.0
  else sorted.(int_of_float (q *. float_of_int (len - 1)))

type load_shape =
  | Open_loop of float          (* offered rate across the group, req/s *)
  | Closed_loop of int          (* clients per party, zero think time *)

(* One measurement run: a fresh cluster, an atomic channel per party, a
   generator in the given shape, [duration] virtual seconds. *)
let drive ?sink ?(arrivals = "load-arrivals|") ~(seed : string)
    ~(cfg : Config.t) ~(duration : float) (shape : load_shape) :
    Gen.t * Atomic_channel.t array =
  let n = cfg.Config.n in
  let c = make_cluster ~seed cfg in
  Option.iter (Cluster.set_sink c) sink;
  (* Clients share each party's network trace context, so request
     submit/complete events join the message-level causal DAG. *)
  let gen =
    Gen.create ~ctx_of:(Sim.Net.trace_ctx c.Cluster.net) ~engine:c.Cluster.engine ()
  in
  let chans =
    Array.init n (fun i ->
      Atomic_channel.create (Cluster.runtime c i) ~pid:"load"
        ~on_deliver:(fun ~sender:_ payload -> Gen.deliver gen ~party:i payload)
        ())
  in
  let submit party ~cause payload =
    Cluster.inject ~cause c party (fun () ->
      Atomic_channel.send chans.(party) payload)
  in
  (match shape with
   | Open_loop rate ->
     let drbg = Hashes.Drbg.create ~seed:(arrivals ^ seed) in
     for p = 0 to n - 1 do
       let arrival =
         Arrival.poisson ~rate:(rate /. float_of_int n)
           (Hashes.Drbg.fork drbg (string_of_int p))
       in
       Gen.add_open gen ~party:p ~arrival ~until:duration ~submit:(submit p)
     done
   | Closed_loop per_party ->
     for p = 0 to n - 1 do
       for _ = 1 to per_party do
         Gen.add_closed gen ~party:p ~think:0.0 ~until:duration
           ~submit:(submit p)
       done
     done);
  ignore (Cluster.run c ~until:duration);
  (gen, chans)

let run_point ~(seed : string) ~(cfg : Config.t) ~(duration : float)
    (shape : load_shape) : point * int =
  let gen, chans = drive ~seed ~cfg ~duration shape in
  let delivered = Atomic_channel.deliveries chans.(0) in
  let rounds = Atomic_channel.rounds_completed chans.(0) in
  let lats = Array.of_list (Gen.latencies gen) in
  Array.sort compare lats;
  let mean =
    if Array.length lats = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 lats /. float_of_int (Array.length lats)
  in
  let throughput = float_of_int delivered /. duration in
  (* A closed loop offers exactly what it achieves. *)
  let offered =
    match shape with Open_loop rate -> rate | Closed_loop _ -> throughput
  in
  ( {
      offered_per_s = offered;
      issued = Gen.issued gen;
      completed = Gen.completed gen;
      delivered;
      throughput_per_s = throughput;
      latency_mean_s = mean;
      latency_p50_s = quantile lats 0.5;
      latency_p90_s = quantile lats 0.9;
    },
    rounds )

let run_series ~(seed : string) ~(n : int) ~(t : int) ~(batched : bool)
    ~(max_batch : int) ~(duration : float) ~(rates : float list)
    ~(clients_per_party : int) : series =
  (* The unbatched series is the pre-batching baseline: one payload per
     party per round AND one round in flight at a time. *)
  let cfg =
    if batched then sweep_cfg ~n ~t ~max_batch ()
    else
      sweep_cfg ~n ~t ~max_batch:1 ~pipeline_depth:1 ~adaptive_batch:false ()
  in
  let mode = if batched then "batched" else "unbatched" in
  let points =
    List.map
      (fun rate ->
        let p, _ =
          run_point
            ~seed:(Printf.sprintf "%s|n%d|%s|open%.3f" seed n mode rate)
            ~cfg ~duration (Open_loop rate)
        in
        p)
      rates
  in
  let saturation, rounds =
    run_point
      ~seed:(Printf.sprintf "%s|n%d|%s|closed" seed n mode)
      ~cfg ~duration (Closed_loop clients_per_party)
  in
  { n; t; batched; points; saturation; rounds }

let run ?(smoke = false) () : report =
  let sizes = if smoke then [ (4, 1) ] else [ (4, 1); (7, 2); (10, 3) ] in
  let duration = if smoke then 2.0 else 10.0 in
  let rates = if smoke then [ 20.0 ] else [ 5.0; 10.0; 20.0; 40.0; 80.0 ] in
  (* 64 closed-loop clients per party keep enough requests outstanding
     that the pipelined, batched channel saturates on round cost rather
     than on the population bound. *)
  let seed = "throughput" and clients_per_party = 64 and max_batch = 256 in
  let series =
    List.concat_map
      (fun (n, t) ->
        List.map
          (fun batched ->
            run_series ~seed ~n ~t ~batched ~max_batch ~duration ~rates
              ~clients_per_party)
          [ true; false ])
      sizes
  in
  { smoke; duration_s = duration; series }

let saturation_throughput (r : report) ~(n : int) ~(batched : bool) :
    float option =
  List.find_map
    (fun s ->
      if s.n = n && s.batched = batched then Some s.saturation.throughput_per_s
      else None)
    r.series

(* --- ledger rows --- *)

let point_rows (params : (string * string) list) (p : point) : Ledger.row list =
  let row = Ledger.row ~params "channel" in
  [ row "offered_per_s" "req/s" p.offered_per_s;
    row "issued" "requests" (float_of_int p.issued);
    row "completed" "requests" (float_of_int p.completed);
    row "delivered" "payloads" (float_of_int p.delivered);
    row "throughput_per_s" "req/s" p.throughput_per_s;
    row "latency_mean_s" "s" p.latency_mean_s;
    row "latency_p50_s" "s" p.latency_p50_s;
    row "latency_p90_s" "s" p.latency_p90_s ]

let ledger (r : report) : Ledger.t =
  let series_rows s =
    let base =
      [ ("n", string_of_int s.n); ("t", string_of_int s.t);
        ("mode", if s.batched then "batched" else "unbatched") ]
    in
    let closed = base @ [ ("load", "closed") ] in
    List.concat_map
      (fun p ->
        point_rows (base @ [ ("load", "open"); ("offered", Ledger.num p.offered_per_s) ]) p)
      s.points
    @ point_rows closed s.saturation
    @ [ Ledger.row ~params:closed "channel" "rounds" "rounds"
          (float_of_int s.rounds) ]
  in
  let ratios =
    List.filter_map
      (fun s ->
        match
          ( s.batched,
            saturation_throughput r ~n:s.n ~batched:true,
            saturation_throughput r ~n:s.n ~batched:false )
        with
        | true, Some b, Some u when u > 0.0 ->
          Some
            (Ledger.row ~params:[ ("n", string_of_int s.n) ] "channel"
               "saturation_ratio" "x" (b /. u))
        | _ -> None)
      r.series
  in
  Ledger.make ~bench:"throughput" ~full:(not r.smoke)
    ~params:[ ("duration_s", Ledger.num r.duration_s) ]
    (List.concat_map series_rows r.series @ ratios)
