(* Provenance recorded beside every result: what code ran, on what host,
   under which seed, and how fast the host was at the time. *)

type t = {
  run_id : string;
  workload : string;
  seed : int;
  trace : bool;
  rev : string;
  src_digest : string;
  hostname : string;
  nproc : int;
  ocaml : string;
  host_ref_ms : float;
}

let read_file (path : string) : string option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      Some (really_input_string ic (in_channel_length ic)))

(* The checked-out commit from [git rev-parse HEAD] on this directory's
   own .git; "none" in an export that is not a repository, or when git
   fails. *)
let git_rev () : string =
  if not (Sys.file_exists ".git") then "none"
  else
    match
      Unix.open_process_args_full "git"
        [| "git"; "--git-dir=.git"; "rev-parse"; "HEAD" |] (Unix.environment ())
    with
    | exception Unix.Unix_error _ -> "none"
    | (out, inp, _) as proc ->
      close_out_noerr inp;
      let line = try String.trim (input_line out) with End_of_file -> "" in
      (match (Unix.close_process_full proc, line) with
       | Unix.WEXITED 0, rev when rev <> "" -> rev
       | _ -> "none")

(* SHA-256 over every source file under the given roots (sorted paths,
   each path followed by its contents): identifies the code under test
   even where no git metadata exists. *)
let src_digest (roots : string list) : string =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc name -> walk acc (Filename.concat path name))
        acc
        (let names = Sys.readdir path in
         Array.sort String.compare names;
         names)
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
            || Filename.basename path = "dune"
    then path :: acc
    else acc
  in
  let files =
    List.concat_map
      (fun r -> if Sys.file_exists r then List.rev (walk [] r) else [])
      roots
  in
  if files = [] then "none"
  else begin
    let ctx = Hashes.Sha256.init () in
    List.iter
      (fun f ->
        Hashes.Sha256.feed_string ctx f;
        Hashes.Sha256.feed_string ctx (Option.value ~default:"" (read_file f)))
      files;
    String.sub (Hashes.Sha256.hex_of_digest (Hashes.Sha256.finish ctx)) 0 16
  end

let make ~(workload : string) ~(seed : int) ~(trace : bool) : t =
  let hostname = try Unix.gethostname () with Unix.Unix_error _ -> "unknown" in
  {
    run_id =
      Printf.sprintf "%s-s%d-t%d-%d-%.0f" workload seed (Bool.to_int trace)
        (Unix.getpid ()) (Clock.wall () *. 1000.0);
    workload;
    seed;
    trace;
    rev = git_rev ();
    src_digest = src_digest [ "lib"; "bin" ];
    hostname;
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    host_ref_ms = Stats.median (List.init 3 (fun _ -> Clock.reference_ms ()));
  }

let to_json (p : t) : string =
  Printf.sprintf
    "{\"run_id\": %S, \"workload\": %S, \"seed\": %d, \"trace\": %b, \
     \"rev\": %S, \"src_digest\": %S, \"host\": {\"hostname\": %S, \
     \"nproc\": %d, \"ocaml\": %S}, \"host_ref_ms\": %.3f}"
    p.run_id p.workload p.seed p.trace p.rev p.src_digest p.hostname p.nproc
    p.ocaml p.host_ref_ms
