(* Host clocks.  Host time is the process's CPU time (user + system), read
   with microsecond resolution: time the process spends descheduled while
   other work runs on the host is not charged to the code under test. *)

let cpu () : float = Sys.time ()

let wall () : float = Unix.gettimeofday ()

(* Words allocated since start-up, net of promotion double counting. *)
let allocated_words () : float =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type sample = {
  cpu_s : float;
  words : float;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
}

let measure (f : unit -> 'a) : 'a * sample =
  let g0 = Gc.quick_stat () in
  let w0 = allocated_words () in
  let c0 = cpu () in
  let r = f () in
  let c1 = cpu () in
  let w1 = allocated_words () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      cpu_s = c1 -. c0;
      words = w1 -. w0;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    } )

(* Median host time (and words) per call of [f]: a warm-up call sizes a
   batch to about a fifth of [budget] seconds, then five batches run and
   the median batch is reported. *)
let per_call ~(budget : float) (f : unit -> unit) : float * float =
  let (), warm = measure f in
  let calls =
    max 1 (min 1_000_000 (int_of_float (budget /. 5.0 /. (warm.cpu_s +. 1e-7))))
  in
  let batch () =
    let (), s = measure (fun () -> for _ = 1 to calls do f () done) in
    (s.cpu_s /. float_of_int calls, s.words /. float_of_int calls)
  in
  let runs = List.init 5 (fun _ -> batch ()) in
  (Stats.median (List.map fst runs), Stats.median (List.map snd runs))

(* A fixed stdlib-only workload that touches no repository code — integer
   arithmetic plus a hash table of 50k boxed entries built and probed, so
   it allocates and misses cache the way the simulator does.  On a shared
   host its time moves with the simulator's: iteration by iteration the
   two correlate (0.67 over 72 back-to-back iterations on a 2-core VM). *)
let reference_ms () : float =
  let c0 = cpu () in
  let x = ref 12345 and acc = ref 0.0 in
  for _ = 1 to 500_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc +. float_of_int (!x land 1023)
  done;
  let tbl = Hashtbl.create 1024 in
  for i = 1 to 50_000 do
    Hashtbl.replace tbl ((i * 7919) land 0xffffff) (string_of_int i)
  done;
  let hits = ref 0 in
  for i = 1 to 100_000 do
    if Hashtbl.mem tbl ((i * 104729) land 0xffffff) then incr hits
  done;
  ignore (Sys.opaque_identity (!acc, !hits));
  (cpu () -. c0) *. 1000.0

let reference_nominal_ms = 25.0

let normalized (seconds : float) ~(reference_ms : float) : float =
  seconds *. reference_nominal_ms /. reference_ms

let peak_heap_mb () : float =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
