(* The bench ledger: rows, the sintra-ledger-v1 writer and reader, and the
   gate table every committed and smoke ledger is checked against. *)

type row = {
  layer : string;
  name : string;
  params : (string * string) list;
  value : float;
  unit : string;
}

type t = {
  bench : string;
  params : (string * string) list;
  rows : row list;
}

let row ?(params = []) layer name unit value = { layer; name; params; value; unit }

let num (v : float) : string = Printf.sprintf "%.6g" v

let make ~bench ~full ?(params = []) rows : t =
  { bench; params = ("run", if full then "full" else "quick") :: params; rows }

(* --- writer and reader --- *)

let json_params (ps : (string * string) list) : string =
  String.concat ","
    (List.map
       (fun (k, v) ->
         Printf.sprintf "\"%s\":\"%s\"" (Trace.Event.escape k)
           (Trace.Event.escape v))
       ps)

let json_row (r : row) : string =
  if not (Float.is_finite r.value) then
    invalid_arg
      (Printf.sprintf "Ledger.to_string: %s.%s is not finite" r.layer r.name);
  Printf.sprintf
    "{\"layer\":\"%s\",\"name\":\"%s\",\"params\":{%s},\"value\":%s,\
     \"unit\":\"%s\"}"
    (Trace.Event.escape r.layer) (Trace.Event.escape r.name)
    (json_params r.params) (num r.value) (Trace.Event.escape r.unit)

let to_string (l : t) : string =
  Printf.sprintf
    "{\n\"ledger\":\"sintra-ledger-v1\",\n\"bench\":\"%s\",\n\"params\":{%s},\n\
     \"rows\":[\n%s\n]\n}\n"
    (Trace.Event.escape l.bench) (json_params l.params)
    (String.concat ",\n" (List.map json_row l.rows))

let of_string (s : string) : (t, string) result =
  let open Trace.Json in
  let str v f = Option.bind (member f v) str_opt in
  let params v =
    match member "params" v with
    | Some (Obj fields) ->
      List.fold_right
        (fun (k, x) acc ->
          match (x, acc) with
          | Str x, Some acc -> Some ((k, x) :: acc)
          | _ -> None)
        fields (Some [])
    | _ -> None
  in
  let parse_row v =
    match
      ( str v "layer", str v "name", params v,
        Option.bind (member "value" v) num_opt, str v "unit" )
    with
    | Some layer, Some name, Some params, Some value, Some unit ->
      Some { layer; name; params; value; unit }
    | _ -> None
  in
  match parse s with
  | Error e -> Error ("not JSON: " ^ e)
  | Ok doc ->
    (match
       ( str doc "ledger", str doc "bench", params doc,
         Option.bind (member "rows" doc) list_opt )
     with
     | Some "sintra-ledger-v1", Some bench, Some ps, Some rows ->
       let parsed = List.filter_map parse_row rows in
       if List.length parsed <> List.length rows then
         Error "a row lacks a string layer/name/unit, string params or a \
                numeric value"
       else Ok { bench; params = ps; rows = parsed }
     | Some other, _, _, _ when other <> "sintra-ledger-v1" ->
       Error (Printf.sprintf "unknown ledger schema %S" other)
     | _ ->
       Error "not a sintra-ledger-v1 document (ledger, bench, params, rows)")

let write (l : t) : string =
  let p =
    Printf.sprintf
      (if List.assoc_opt "run" l.params = Some "full" then "BENCH_%s.json"
       else "smoke_%s.json")
      l.bench
  in
  let oc = open_out_bin p in
  output_string oc (to_string l);
  close_out oc;
  p

let read (file : string) : (t, string) result =
  match open_in_bin file with
  | exception Sys_error e -> Error e
  | ic ->
    let s =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
    in
    of_string s

(* --- the gate table --- *)

type op = Ge | Gt | Le | Eq | Count_ge

type gate = {
  bench : string;
  row : string;
  filter : (string * string) list;
  op : op;
  bound : float;
}

let gate bench row ?(filter = []) op bound = { bench; row; filter; op; bound }

(* The batch-verification floors are stated at the paper's 1024-bit
   moduli (full runs); a quick run measures 512 bits only, where the proof
   transcripts are half as wide and the amortization structurally smaller,
   so its floors are lower. *)
let perf_gates =
  let at run bits = [ ("run", run); ("bits", string_of_int bits) ] in
  List.map (fun name -> gate "perf" ("speedup." ^ name) Count_ge 1.0)
    [ "montgomery"; "multi_exp"; "fixed_base" ]
  @ List.concat_map
      (fun (run, bits, tsig, coin) ->
        [ gate "perf" "speedup.dleq_verify" ~filter:(at run bits) Ge 1.5;
          gate "perf" "speedup.tsig_batch_verify" ~filter:(at run bits) Ge tsig;
          gate "perf" "speedup.coin_batch_verify" ~filter:(at run bits) Ge coin ])
      [ ("quick", 512, 2.0, 1.5); ("full", 1024, 3.0, 2.0) ]

(* Both series present with a ladder and a saturation probe; batching and
   pipelining lift n=4 saturation an order of magnitude.  The adaptive run
   is 8 waves of 24 payloads against a cap that starts at its floor,
   min 8 max_batch = 8, under max_batch = 256. *)
let throughput_gates =
  List.concat_map
    (fun mode ->
      [ gate "throughput" "channel.throughput_per_s"
          ~filter:[ ("mode", mode); ("load", "open") ] Count_ge 1.0;
        gate "throughput" "channel.throughput_per_s"
          ~filter:[ ("mode", mode); ("load", "closed") ] Gt 0.0 ])
    [ "batched"; "unbatched" ]
  @ [ gate "throughput" "channel.saturation_ratio" ~filter:[ ("n", "4") ] Ge 10.0;
      gate "throughput" "adaptive.cap_min" ~filter:[ ("max_batch", "256") ] Ge 8.0;
      gate "throughput" "adaptive.cap_max" ~filter:[ ("max_batch", "256") ] Gt 8.0;
      gate "throughput" "adaptive.cap_max" ~filter:[ ("max_batch", "256") ] Le 256.0;
      gate "throughput" "adaptive.delivered" Eq 192.0 ]

let latency_gates =
  [ gate "latency" "channel.coverage" Count_ge 3.0;
    gate "latency" "channel.coverage" Ge 0.95 ]

(* The with/without-durability run uses checkpoint interval 8 and the
   default pipeline window of 4: the resident backlog stays within
   2*8 + 2*4 + 4 = 28 rounds.  The recovery ladder (full runs) uses
   interval 32, so a checkpointed replay re-feeds at most 2*32 + 1
   rounds. *)
let durability_gates =
  let recovery r = [ ("recovery", r) ] in
  let full r = [ ("run", "full"); ("recovery", r) ] in
  [ gate "durability" "durable.delivery_log_identical" Eq 1.0;
    gate "durability" "durable.backlog_rounds_peak" ~filter:[ ("interval", "8") ]
      Le 28.0;
    gate "durability" "durable.log_reencode_identical" Eq 1.0;
    gate "durability" "durable.final_lag_rounds" Le 0.0;
    gate "durability" "durable.snapshots_adopted" ~filter:(recovery "snapshot")
      Ge 1.0;
    gate "durability" "durable.replayed_rounds" ~filter:(recovery "snapshot")
      Eq 0.0;
    gate "durability" "durable.restored_from" ~filter:(recovery "snapshot")
      Eq (-1.0);
    gate "durability" "durable.snapshots_adopted" ~filter:(full "replay-full")
      Eq 0.0;
    gate "durability" "durable.replayed_fraction" ~filter:(full "replay-full")
      Ge 1.0;
    gate "durability" "durable.replayed_rounds" ~filter:(full "replay-ckpt")
      Le 65.0 ]

let vopr_gates =
  List.map
    (fun k ->
      gate "vopr" "vopr.failures"
        ~filter:[ ("workload", Vopr.Oracle.kind_to_string k) ] Eq 0.0)
    Vopr.Oracle.kinds

let gates =
  perf_gates @ throughput_gates @ latency_gates @ durability_gates @ vopr_gates

let gate_name (g : gate) : string =
  Printf.sprintf "%s: %s%s %s %s" g.bench g.row
    (match g.filter with
     | [] -> ""
     | f ->
       "[" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) f) ^ "]")
    (match g.op with
     | Ge -> ">="
     | Gt -> ">"
     | Le -> "<="
     | Eq -> "="
     | Count_ge -> "rows >=")
    (num g.bound)

let applies (l : t) (g : gate) : bool =
  g.bench = l.bench
  && List.for_all
       (fun (k, v) ->
         match List.assoc_opt k l.params with Some v' -> v = v' | None -> true)
       g.filter

let matching (l : t) (g : gate) : row list =
  List.filter
    (fun (r : row) ->
      r.layer ^ "." ^ r.name = g.row
      && List.for_all
           (fun (k, v) ->
             List.assoc_opt k r.params = Some v
             || List.assoc_opt k l.params = Some v)
           g.filter)
    l.rows

let check (l : t) : string list =
  let fail g fmt = Printf.ksprintf (fun s -> Some (gate_name g ^ ": " ^ s)) fmt in
  let verdict g =
    let rows = matching l g in
    let holds v =
      match g.op with
      | Ge -> v >= g.bound
      | Gt -> v > g.bound
      | Le -> v <= g.bound
      | Eq -> v = g.bound
      | Count_ge -> true
    in
    match (g.op, rows) with
    | Count_ge, _ ->
      if float_of_int (List.length rows) >= g.bound then None
      else fail g "only %d row(s)" (List.length rows)
    | _, [] -> fail g "no matching row"
    | _, _ ->
      (match List.find_opt (fun (r : row) -> not (holds r.value)) rows with
       | None -> None
       | Some r ->
         fail g "{%s} is %s" (json_params r.params) (num r.value))
  in
  match List.filter (applies l) gates with
  | [] -> [ Printf.sprintf "%s: no gate applies to this ledger" l.bench ]
  | gs -> List.filter_map verdict gs
