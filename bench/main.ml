(* The benchmark harness: regenerates every table and figure from Section 4
   of "Secure Intrusion-tolerant Replication on the Internet" (DSN 2002).

     dune exec bench/main.exe                 - everything, reduced message
                                                counts (finishes in minutes)
     dune exec bench/main.exe -- --full       - paper-scale message counts
     dune exec bench/main.exe -- fig4 table1  - a subset
     dune exec bench/main.exe -- micro        - bechamel crypto microbenches
     dune exec bench/main.exe -- perf         - fast-path wall-clock comparison
                                                (512-bit quick mode unless
                                                --full)
     dune exec bench/main.exe -- throughput   - batched vs unbatched atomic
                                                broadcast sweep plus the
                                                adaptive batch cap
     dune exec bench/main.exe -- latency      - traced offered-load ladder
                                                with critical-path phase
                                                attribution
     dune exec bench/main.exe -- durability   - durability check, then (with
                                                --full) rebuild-at-tip cost:
                                                full log replay vs
                                                checkpointed replay vs
                                                snapshot transfer
     dune exec bench/main.exe -- vopr         - schedule-explorer seeds/sec
     dune exec bench/main.exe -- check FILE.. - apply the gate table
                                                (Load.Ledger.gates) to ledgers

   perf, throughput, latency, durability and vopr each write one ledger:
   smoke_<bench>.json in quick mode, BENCH_<bench>.json with --full.

   Absolute numbers come from a simulator calibrated with the paper's host
   and network measurements; the claims to check are the *shapes* (see
   EXPERIMENTS.md). *)

let known =
  [ "fig3"; "fig4"; "fig5"; "table1"; "fig6"; "hosts"; "micro"; "perf";
    "ablations"; "vopr"; "throughput"; "latency"; "durability" ]

(* Apply the gate table to each ledger file; exit 1 if any gate fails. *)
let check (files : string list) : unit =
  let failed = ref false in
  List.iter
    (fun file ->
      match Load.Ledger.read file with
      | Error e ->
        Printf.eprintf "%s: INVALID ledger: %s\n" file e;
        failed := true
      | Ok l ->
        (match Load.Ledger.check l with
         | [] ->
           Printf.printf "%s: %s ledger, %d rows, %d gates pass\n" file
             l.Load.Ledger.bench (List.length l.Load.Ledger.rows)
             (List.length (List.filter (Load.Ledger.applies l) Load.Ledger.gates))
         | fails ->
           List.iter (Printf.eprintf "%s: FAILED %s\n" file) fails;
           failed := true))
    files;
  exit (if !failed then 1 else 0)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
   | [ "check" ] ->
     prerr_endline "usage: main.exe check FILE...";
     exit 2
   | "check" :: files -> check files
   | _ -> ());
  let full = List.mem "--full" args in
  let fast_path = not (List.mem "--no-fast-path" args) in
  let args =
    List.filter (fun a -> a <> "--full" && a <> "--no-fast-path") args
  in
  List.iter
    (fun a ->
      if not (List.mem a known) then begin
        Printf.eprintf
          "unknown experiment %S (known: %s, plus --full and --no-fast-path)\n" a
          (String.concat " " known);
        exit 2
      end)
    args;
  let selected name = args = [] || List.mem name args in
  let t0 = Unix.gettimeofday () in
  let section name f =
    if selected name then begin
      let t = Unix.gettimeofday () in
      f ();
      Printf.printf "[%s took %.1fs real time]\n\n%!" name (Unix.gettimeofday () -. t)
    end
  in
  print_endline "SINTRA benchmark harness - reproducing DSN 2002, Section 4";
  Printf.printf "mode: %s%s\n\n%!"
    (if full then "full (paper-scale runs)" else "reduced (use --full for paper-scale)")
    (if fast_path then "" else ", fast-path cost accounting OFF (fig4/fig5)");
  section "hosts" (fun () -> Experiments.hosts ());
  section "fig3" (fun () -> Experiments.fig3 ());
  section "fig4" (fun () ->
    Experiments.fig4 ~fast_path ~messages:(if full then 999 else 150) ());
  section "fig5" (fun () ->
    Experiments.fig5 ~fast_path ~messages:(if full then 999 else 150) ());
  section "table1" (fun () -> Experiments.table1 ~messages:(if full then 500 else 60) ());
  section "fig6" (fun () -> Experiments.fig6 ~messages:(if full then 100 else 25) ());
  section "ablations" (fun () -> Ablations.all ());
  section "micro" (fun () -> Micro.all ());
  section "perf" (fun () -> Micro.perf ~quick:(not full) ());
  section "vopr" (fun () -> Vopr_bench.run ~quick:(not full) ());
  section "throughput" (fun () -> Throughput_bench.run ~quick:(not full) ());
  section "latency" (fun () -> Latency_bench.run ~quick:(not full) ());
  section "durability" (fun () -> Durability_bench.run ~quick:(not full) ());
  if Experiments.metrics_count () > 0 then begin
    let path = "BENCH_trace.json" in
    let oc = open_out path in
    output_string oc (Experiments.metrics_json ());
    close_out oc;
    Printf.printf "wrote %s (%d experiment metric sets)\n" path
      (Experiments.metrics_count ())
  end;
  Printf.printf "total: %.1fs real time\n" (Unix.gettimeofday () -. t0)
