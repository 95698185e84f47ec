(* The throughput section of the bench harness: latency-vs-offered-load
   curves for batched vs unbatched atomic broadcast (lib/load sweep), plus
   one bursty run that watches the adaptive batch cap, written as the
   throughput ledger.

   Quick mode runs the CI-sized smoke sweep into smoke_throughput.json;
   --full runs the real thing (n in {4, 7, 10}, five offered rates, 10
   virtual seconds per point) into the committed BENCH_throughput.json. *)

open Sintra

(* A bursty closed-loop workload on the benchmark configuration: 8 waves of
   6 payloads per party, 0.25 virtual seconds apart.  The AIMD cap should
   rise above its floor while the backlog is deep and never leave
   [min 8 max_batch, max_batch]; every one of the 192 payloads must be
   delivered.  The cap is sampled every 20 virtual ms at party 0. *)
let adaptive () : Load.Ledger.row list =
  let max_batch = 256 in
  let cfg = Load.Sweep.sweep_cfg ~n:4 ~t:1 ~max_batch () in
  let c = Load.Sweep.make_cluster ~seed:"adaptive|adaptive" cfg in
  let chans =
    Array.init 4 (fun i ->
      Atomic_channel.create (Cluster.runtime c i) ~pid:"adapt"
        ~on_deliver:(fun ~sender:_ _ -> ()) ())
  in
  for wave = 0 to 7 do
    Cluster.at c ~time:(0.01 +. (0.25 *. float_of_int wave)) (fun () ->
      for i = 0 to 3 do
        Cluster.inject c i (fun () ->
          for k = 0 to 5 do
            Atomic_channel.send chans.(i) (Printf.sprintf "m%d.%d.%d" i wave k)
          done)
      done)
  done;
  let hi = ref 0 and lo = ref max_int in
  for k = 1 to 750 do
    Cluster.at c ~time:(float_of_int k *. 0.02) (fun () ->
      let cap = Atomic_channel.batch_limit chans.(0) in
      if cap > !hi then hi := cap;
      if cap < !lo then lo := cap)
  done;
  ignore (Cluster.run c ~until:300.0);
  let delivered = Atomic_channel.deliveries chans.(0) in
  Printf.printf "\nadaptive: cap ranged [%d, %d] (ceiling %d), %d payloads delivered\n"
    !lo !hi max_batch delivered;
  let params = [ ("max_batch", string_of_int max_batch) ] in
  let row = Load.Ledger.row ~params "adaptive" in
  [ row "cap_min" "payloads" (float_of_int !lo);
    row "cap_max" "payloads" (float_of_int !hi);
    row "delivered" "payloads" (float_of_int delivered) ]

let run ~(quick : bool) () : unit =
  print_endline "--- throughput: batched vs unbatched atomic broadcast ---";
  let report = Load.Sweep.run ~smoke:quick () in
  List.iter
    (fun (s : Load.Sweep.series) ->
      Printf.printf "\nn=%d t=%d, %s (open-loop ladder, then closed-loop):\n"
        s.Load.Sweep.n s.Load.Sweep.t
        (if s.Load.Sweep.batched then "batched" else "unbatched (max_batch=1)");
      Printf.printf "  %12s %14s %12s %12s\n" "offered/s" "throughput/s"
        "p50 (s)" "p90 (s)";
      List.iter
        (fun (p : Load.Sweep.point) ->
          Printf.printf "  %12.1f %14.1f %12.3f %12.3f\n"
            p.Load.Sweep.offered_per_s p.Load.Sweep.throughput_per_s
            p.Load.Sweep.latency_p50_s p.Load.Sweep.latency_p90_s)
        s.Load.Sweep.points;
      let sat = s.Load.Sweep.saturation in
      Printf.printf "  %12s %14.1f %12.3f %12.3f  (%d rounds)\n" "closed-loop"
        sat.Load.Sweep.throughput_per_s sat.Load.Sweep.latency_p50_s
        sat.Load.Sweep.latency_p90_s s.Load.Sweep.rounds)
    report.Load.Sweep.series;
  (match
     ( Load.Sweep.saturation_throughput report ~n:4 ~batched:true,
       Load.Sweep.saturation_throughput report ~n:4 ~batched:false )
   with
   | Some b, Some u when u > 0.0 ->
     Printf.printf "\nn=4 batched/unbatched saturation ratio: %.2fx\n" (b /. u)
   | _ -> ());
  let l = Load.Sweep.ledger report in
  let l = { l with Load.Ledger.rows = l.Load.Ledger.rows @ adaptive () } in
  Printf.printf "wrote %s\n\n" (Load.Ledger.write l)
