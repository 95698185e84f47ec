(** Provenance recorded beside every result. *)

type t = {
  run_id : string;       (** unique per invocation *)
  workload : string;     (** workload name *)
  seed : int;            (** workload seed *)
  trace : bool;          (** traced (per-layer) run *)
  rev : string;          (** git revision, or ["none"] outside a repository *)
  src_digest : string;   (** SHA-256 prefix over the lib/ and bin/ sources *)
  hostname : string;     (** host name *)
  nproc : int;           (** CPUs available ({!Domain.recommended_domain_count}) *)
  ocaml : string;        (** OCaml version *)
  host_ref_ms : float;
  (** {!Clock.reference_ms} at start-up, median of three: host drift shows
      here even when the program under test did not change *)
}

val make : workload:string -> seed:int -> trace:bool -> t
(** Collect provenance for one run (runs the reference loop). *)

val to_json : t -> string
(** One-line JSON rendering. *)
