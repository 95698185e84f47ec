(* Tests for the bench ledger: the committed BENCH_*.json ledgers pass the
   gate table and re-encode byte for byte, and every gate in the table
   fails — naming itself — once its value moves just past the bound or
   its rows are deleted. *)

module L = Load.Ledger

let benches = [ "perf"; "throughput"; "latency"; "durability"; "vopr" ]

let committed bench =
  let file = Printf.sprintf "../BENCH_%s.json" bench in
  let contents = In_channel.with_open_bin file In_channel.input_all in
  match L.of_string contents with
  | Ok l -> (contents, l)
  | Error e -> Alcotest.failf "%s: %s" file e

let names_gate (g : L.gate) (fails : string list) : bool =
  List.exists
    (String.starts_with ~prefix:(L.gate_name g ^ ":"))
    fails

(* The committed ledger of the gate's bench, with its ledger-wide
   parameters set to the ones the gate selects (a quick-run gate is
   exercised on the committed full run relabelled quick). *)
let ledger_for (g : L.gate) : L.t =
  let _, l = committed g.L.bench in
  { l with
    L.params =
      List.map
        (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k g.L.filter)))
        l.L.params }

(* Replace the gate's matching rows by [f] of them. *)
let edit (l : L.t) (g : L.gate) (f : L.row list -> L.row list) : L.t =
  let hit = L.matching l g in
  let kept = f hit in
  let rest = List.filter (fun r -> not (List.memq r hit)) l.L.rows in
  { l with L.rows = rest @ kept }

let just_past (g : L.gate) : L.row list -> L.row list =
  let set v = function
    | r :: rs -> { r with L.value = v } :: rs
    | [] -> []
  in
  match g.L.op with
  | L.Ge -> set (Float.pred g.L.bound)
  | L.Gt -> set g.L.bound
  | L.Le -> set (Float.succ g.L.bound)
  | L.Eq -> set (g.L.bound +. 1.0)
  | L.Count_ge -> List.filteri (fun i _ -> float_of_int i < g.L.bound -. 1.0)

let suite = [
  Alcotest.test_case "committed ledgers pass and re-encode byte for byte"
    `Quick (fun () ->
      List.iter
        (fun bench ->
          let contents, l = committed bench in
          Alcotest.(check string) (bench ^ ": bench field") bench l.L.bench;
          Alcotest.(check (list string)) (bench ^ ": gates pass") [] (L.check l);
          Alcotest.(check string) (bench ^ ": re-encoding") contents
            (L.to_string l))
        benches);

  Alcotest.test_case "every gate fails just past its bound and without rows"
    `Quick (fun () ->
      let names = List.map L.gate_name L.gates in
      Alcotest.(check int) "gate names are unique" (List.length names)
        (List.length (List.sort_uniq compare names));
      List.iter
        (fun (g : L.gate) ->
          let name = L.gate_name g in
          Alcotest.(check bool) (name ^ ": has a bench") true
            (List.mem g.L.bench benches);
          let l = ledger_for g in
          Alcotest.(check bool) (name ^ ": applies") true (L.applies l g);
          Alcotest.(check bool) (name ^ ": holds on the committed ledger")
            false (names_gate g (L.check l));
          Alcotest.(check bool) (name ^ ": fails just past its bound") true
            (names_gate g (L.check (edit l g (just_past g))));
          Alcotest.(check bool) (name ^ ": fails without its rows") true
            (names_gate g (L.check (edit l g (fun _ -> [])))))
        L.gates);

  Alcotest.test_case "writer and reader round-trip, escapes and rejects"
    `Quick (fun () ->
      let l =
        L.make ~bench:"perf" ~full:false ~params:[ ("note", "a\"b\\c\n") ]
          [ L.row ~params:[ ("bits", "512") ] "speedup" "dleq_verify" "x" 2.5;
            L.row "crypto" "k" "ms/op" 1e-17 ]
      in
      let s = L.to_string l in
      (match L.of_string s with
       | Ok l' ->
         Alcotest.(check string) "re-encoding" s (L.to_string l');
         Alcotest.(check (list (pair string string))) "params"
           [ ("run", "quick"); ("note", "a\"b\\c\n") ]
           l'.L.params
       | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "non-finite value refused" true
        (match L.to_string { l with L.rows = [ L.row "x" "y" "z" Float.nan ] } with
         | _ -> false
         | exception Invalid_argument _ -> true);
      Alcotest.(check bool) "foreign schema refused" true
        (Result.is_error (L.of_string "{\"schema\":\"sintra-bench-perf-v2\"}"));
      Alcotest.(check (list string)) "unknown bench fails"
        [ "nope: no gate applies to this ledger" ]
        (L.check { l with L.bench = "nope" }));
]
