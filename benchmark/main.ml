(* Command-line entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints provenance, one line per metric (name, value, unit, samples)
   and, last, one JSON result line.  A correctness-gate failure exits 1
   without printing a result. *)

open Sintra_bench

let usage () =
  prerr_endline
    "usage: main.exe --workload trickle|saturate|recover|vopr-secure --seed N \
     --seconds S --trace 0|1";
  exit 2

let out_dir = "_benchmark_out"

(* Re-run this executable to time one cold set-up in a fresh process. *)
let spawn_setup ~(workload : string) ~(seed : int) ~(rep : int) : float =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--setup-probe"; "--workload"; workload; "--seed"; string_of_int seed;
       "--rep"; string_of_int rep |]
  in
  let ic = Unix.open_process_args_in exe args in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some v -> v
  | _ -> failwith "set-up probe process failed"

let json_number (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let setup_probe = ref false and rep = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
      parse rest
    | "--setup-probe" :: rest -> setup_probe := true; parse rest
    | "--rep" :: v :: rest ->
      (match int_of_string_opt v with Some r -> rep := r | None -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match Bench.find ~smoke:false !workload with Some w -> w | None -> usage () in
  if !seed < 0 then usage ();
  if !setup_probe then begin
    Printf.printf "%.9f\n" (Bench.setup_once w ~seed:!seed ~rep:!rep);
    exit 0
  end;
  let prov = Prov.make ~workload:w.Bench.name ~seed:!seed ~trace:(!trace = 1) in
  Printf.printf "provenance %s\n%!" (Prov.to_json prov);
  match
    Bench.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~run_id:prov.Prov.run_id
      ~smoke:false
      ~setup:(spawn_setup ~workload:w.Bench.name ~seed:!seed)
  with
  | exception Gate.Failed why ->
    Printf.eprintf "correctness gate failed: %s\n%!" why;
    exit 1
  | o ->
    List.iter
      (fun (m : Bench.metric) ->
        Printf.printf "metric %-36s %16.6f %-8s samples=%d\n" m.Bench.name m.Bench.value
          m.Bench.unit_ m.Bench.samples)
      o.Bench.metrics;
    (match o.Bench.spans with
     | Some tr -> Printf.printf "spans %s\n" (Tracer.write tr ~dir:out_dir)
     | None -> ());
    let metrics =
      String.concat ", "
        (List.map
           (fun (m : Bench.metric) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Bench.name
               (json_number m.Bench.value) m.Bench.unit_)
           o.Bench.metrics)
    in
    Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n"
      o.Bench.attempted metrics
