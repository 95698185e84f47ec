(* The latency section of the bench harness: traced open-loop atomic
   broadcast at several offered loads, with completion-latency percentiles
   and a critical-path phase breakdown per point (lib/load latency bench),
   written as the latency ledger.

   Quick mode runs the CI-sized smoke bench into smoke_latency.json;
   --full measures 8 virtual seconds per point over five offered rates
   into the committed BENCH_latency.json. *)

let run ~(quick : bool) () : unit =
  print_endline "--- latency: critical-path attribution by offered load ---";
  let report = Load.Latency.run ~smoke:quick () in
  Printf.printf "n=%d t=%d, %.1f virtual seconds per point:\n"
    report.Load.Latency.n report.Load.Latency.t report.Load.Latency.duration_s;
  Printf.printf "  %10s %9s %9s %9s %9s %9s %9s\n" "offered/s" "payloads"
    "p50 (s)" "p90 (s)" "p99 (s)" "hops" "coverage";
  List.iter
    (fun (p : Load.Latency.point) ->
      Printf.printf "  %10.1f %9d %9.3f %9.3f %9.3f %9.1f %8.1f%%\n"
        p.Load.Latency.offered_per_s p.Load.Latency.payloads
        p.Load.Latency.latency_p50_s p.Load.Latency.latency_p90_s
        p.Load.Latency.latency_p99_s p.Load.Latency.hops_mean
        (100.0 *. p.Load.Latency.coverage))
    report.Load.Latency.points;
  (* The headline of the experiment: which phase dominates, per point. *)
  List.iter
    (fun (p : Load.Latency.point) ->
      let total =
        List.fold_left (fun acc (_, v) -> acc +. v) 0.0 p.Load.Latency.phases_s
      in
      Printf.printf "  offered %.0f req/s phases:" p.Load.Latency.offered_per_s;
      List.iter
        (fun (name, v) ->
          if total > 0.0 then
            Printf.printf "  %s %.1f%%" name (100.0 *. v /. total))
        p.Load.Latency.phases_s;
      print_newline ())
    report.Load.Latency.points;
  Printf.printf "wrote %s\n\n"
    (Load.Ledger.write (Load.Latency.ledger report))
