(* The benchmark's own tests: exact quantiles, the correctness gate on
   planted faults (including a restarted party that never catches up), and
   a smoke run of every workload at tiny sizes, untraced and traced,
   checked against BENCHMARK.json.

     test_bench.exe PATH/TO/BENCHMARK.json *)

open Sintra_bench

let failures = ref 0

let check (name : string) (ok : bool) : unit =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let raises (name : string) (f : unit -> unit) : unit =
  check name (match f () with () -> false | exception Gate.Failed _ -> true)

let passes (name : string) (f : unit -> unit) : unit =
  check name (match f () with () -> true | exception Gate.Failed _ -> false)

let quantiles () =
  (* Nearest rank is ceil(q*n): for n=3, q=0.9 that is rank 3, where a
     floor(q*(n-1)) index would read rank 2. *)
  check "n=3 q=0.9 is the maximum" (Stats.nearest_rank_index ~n:3 0.9 = 2);
  check "quantile [3;1;2] 0.9 = 3" (Stats.quantile [ 3.0; 1.0; 2.0 ] 0.9 = 3.0);
  check "median of 4 is the 2nd value" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.0);
  check "q=0 is the minimum" (Stats.quantile [ 5.0; 7.0; 6.0 ] 0.0 = 5.0);
  check "q=1 is the maximum" (Stats.quantile [ 5.0; 7.0; 6.0 ] 1.0 = 7.0);
  check "single sample" (Stats.quantile [ 0.3 ] 0.99 = 0.3);
  (* An exact value, not a histogram bucket's upper bound. *)
  check "p50 is a sample value"
    (Stats.median [ 0.101; 0.132; 0.144; 0.151; 0.203 ] = 0.144);
  check "p95 of 200 is rank 190" (Stats.nearest_rank_index ~n:200 0.95 = 189);
  check "p99 of 1000 is rank 990" (Stats.nearest_rank_index ~n:1000 0.99 = 989)

let gate () =
  let seq = List.init 6 (fun i -> (i mod 4, Printf.sprintf "ld|%d|0" i)) in
  let swapped = match seq with a :: b :: rest -> b :: a :: rest | l -> l in
  passes "identical sequences pass" (fun () -> Gate.identical [ (0, seq); (1, seq) ]);
  raises "planted mismatched sequence is rejected" (fun () ->
    Gate.identical [ (0, seq); (1, seq); (2, swapped) ]);
  let slice = List.filteri (fun i _ -> i >= 2 && i <= 4) seq in
  passes "contiguous slice passes" (fun () ->
    Gate.contiguous_slice ~what:"slice" ~reference:seq slice);
  raises "slice with a gap is rejected" (fun () ->
    Gate.contiguous_slice ~what:"gap" ~reference:seq (List.filteri (fun i _ -> i <> 3) seq));
  let gapped = List.filteri (fun i _ -> i <> 2 && i <> 3) seq in
  raises "gap without a snapshot adoption is rejected" (fun () ->
    Gate.slices_across_snapshots ~what:"jump" ~reference:seq (gapped, [ 0; 0; 0; 0 ]));
  passes "gap at a snapshot adoption passes" (fun () ->
    Gate.slices_across_snapshots ~what:"jump" ~reference:seq (gapped, [ 0; 0; 1; 1 ]));
  raises "moving backwards is rejected even after an adoption" (fun () ->
    Gate.slices_across_snapshots ~what:"back" ~reference:seq
      (List.rev gapped, [ 0; 1; 2; 3 ]));
  let issued = List.map snd seq in
  passes "exactly once passes" (fun () -> Gate.exactly_once ~issued seq);
  raises "a duplicate delivery is rejected" (fun () ->
    Gate.exactly_once ~issued (seq @ [ List.hd seq ]));
  raises "a lost request is rejected" (fun () -> Gate.exactly_once ~issued (List.tl seq))

(* A planted recovery fault: every frame to the restarted party is dropped
   from the restart on, so it can never reach the round party 0 had then.
   The run must end and fail the gate rather than poll forever. *)
let stuck_restart () =
  match Bench.find ~smoke:true "recover" with
  | None -> check "recover workload exists" false
  | Some w ->
    let load = w.Bench.load in
    let restart_at = 2.0 *. load.Work.duration /. 3.0 in
    let victim = Work.n - 1 in
    let probe =
      {
        Work.none with
        on_cluster =
          (fun c ->
            Sintra.Cluster.set_intercept c (fun ~src:_ ~dst _ ->
              if dst = victim && Sintra.Cluster.now c >= restart_at then Sim.Net.Drop
              else Sim.Net.Deliver));
      }
    in
    let seed = "stuck-restart" in
    check "a restarted party that never catches up fails the gate"
      (match Work.run_load ~probe ~dealer:(Work.deal ~seed) ~seed load with
       | _ -> false
       | exception Gate.Failed why -> why = "restarted party never caught up")

let names (json : Trace.Json.value) (key : string) : string list =
  match Option.bind (Trace.Json.member key json) Trace.Json.list_opt with
  | Some items ->
    List.filter_map (fun it -> Option.bind (Trace.Json.member "name" it) Trace.Json.str_opt) items
  | None -> []

let smoke (benchmark_json : string) =
  let text = In_channel.with_open_bin benchmark_json In_channel.input_all in
  let json =
    match Trace.Json.parse text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let sorted l = List.sort_uniq String.compare l in
  let e2e = sorted (names json "end_to_end") and layer = sorted (names json "per_layer") in
  check "BENCHMARK.json lists metrics" (e2e <> [] && layer <> []);
  List.iter
    (fun name ->
      match Bench.find ~smoke:true name with
      | None -> check ("workload " ^ name ^ " exists") false
      | Some w ->
        let run trace =
          Bench.run w ~seed:7 ~seconds:0.01 ~trace ~run_id:("smoke-" ^ name) ~smoke:true
            ~setup:(fun ~rep -> Bench.setup_once w ~seed:7 ~rep)
        in
        let printed (o : Bench.outcome) = sorted (List.map (fun (m : Bench.metric) -> m.Bench.name) o.Bench.metrics) in
        let plain = run false in
        check (name ^ ": every end-to-end metric is printed") (printed plain = e2e);
        List.iter
          (fun (m : Bench.metric) ->
            check (Printf.sprintf "%s: %s is positive and finite" name m.Bench.name)
              (Float.is_finite m.Bench.value && m.Bench.value > 0.0))
          plain.Bench.metrics;
        let traced = run true in
        check (name ^ ": every per-layer metric is printed") (printed traced = layer);
        List.iter
          (fun (m : Bench.metric) ->
            check (Printf.sprintf "%s: %s is finite" name m.Bench.name) (Float.is_finite m.Bench.value))
          traced.Bench.metrics;
        (match traced.Bench.spans with
         | None -> check (name ^ ": traced run records spans") false
         | Some tr ->
           let run_spans = Tracer.subtree tr traced.Bench.run_span in
           let self =
             List.fold_left
               (fun acc (s, t) -> if List.memq s run_spans then acc +. t else acc)
               0.0 (Tracer.self_times tr)
           in
           check (name ^ ": the traced run has family spans") (List.length run_spans > 1);
           check
             (Printf.sprintf "%s: span self times %.6f s <= traced host time %.6f s" name self
                traced.Bench.run_host_s)
             (self <= traced.Bench.run_host_s +. 1e-9);
           List.iter
             (fun ((s : Tracer.span), t) ->
               check (Printf.sprintf "%s: span %s self time %.9f s >= 0" name s.Tracer.name t)
                 (t >= -1e-9))
             (Tracer.self_times tr);
           (* Host time the sink charged to no protocol family: the run
              span's own self time plus the time before the first dispatch. *)
           let unattributed =
             List.fold_left
               (fun acc ((s : Tracer.span), t) ->
                 if s.Tracer.id = traced.Bench.run_span then acc +. t
                 else if s.Tracer.name = "sintra.other" && List.memq s run_spans then
                   acc +. (s.Tracer.stop -. s.Tracer.start)
                 else acc)
               0.0 (Tracer.self_times tr)
           in
           check
             (Printf.sprintf "%s: %.6f s of %.6f s traced host time is charged to no family"
                name unattributed traced.Bench.run_host_s)
             (unattributed <= 0.05 *. traced.Bench.run_host_s)))
    (names json "workloads")

let () =
  let benchmark_json = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json" in
  quantiles ();
  gate ();
  stuck_restart ();
  smoke benchmark_json;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "benchmark self-test: all checks passed"
