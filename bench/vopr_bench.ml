(* Schedule-explorer throughput: sweep a batch of seeds per workload kind
   and report seeds/sec, written as the vopr ledger.  The sweep doubles as
   a regression check — its gate holds every kind to zero oracle
   failures. *)

let run ~(quick : bool) () : unit =
  let seeds = if quick then 20 else 200 in
  Printf.printf "=== Schedule explorer throughput (%d seeds per workload) ===\n\n"
    seeds;
  let rows =
    List.concat_map
      (fun kind ->
        let t0 = Unix.gettimeofday () in
        let report =
          Vopr.Explorer.explore
            ~runner:(fun ~seed sched -> Vopr.Workload.run ~kind ~seed sched)
            ~oracles:(Vopr.Oracle.all kind)
            ~generate:(Vopr.Workload.schedule ~kind)
            ~seed:"bench-vopr" ~seeds ()
        in
        let rate = float_of_int seeds /. (Unix.gettimeofday () -. t0 +. 1e-9) in
        let name = Vopr.Oracle.kind_to_string kind in
        let runs = report.Vopr.Explorer.runs in
        let failures = List.length report.Vopr.Explorer.failures in
        Printf.printf "  %-16s %4d runs  %d failure(s)  %8.1f seeds/sec\n%!" name
          runs failures rate;
        let row = Load.Ledger.row ~params:[ ("workload", name) ] "vopr" in
        [ row "runs" "runs" (float_of_int runs);
          row "failures" "seeds" (float_of_int failures);
          row "seeds_per_s" "seeds/s" rate ])
      Vopr.Oracle.kinds
  in
  let l =
    Load.Ledger.make ~bench:"vopr" ~full:(not quick)
      ~params:[ ("seeds", string_of_int seeds) ] rows
  in
  Printf.printf "\nwrote %s\n\n" (Load.Ledger.write l)
