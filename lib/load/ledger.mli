(** The bench ledger: one row format for every benchmark artifact, one
    writer, one reader, and one declarative gate table that [dune runtest]
    re-checks (see OPERATIONS.md for the file layout).

    A ledger is the output of one bench run: the bench's name, ledger-wide
    parameters (always [run = quick | full], plus the run's settings) and
    a flat list of measured rows.  A quick run writes
    [smoke_<bench>.json]; a [--full] run writes the committed
    [BENCH_<bench>.json]. *)

(** One measured value. *)
type row = {
  layer : string;  (** the stack layer measured, e.g. ["speedup"] *)
  name : string;  (** what was measured within the layer *)
  params : (string * string) list;
      (** the point this row belongs to, e.g. [[("bits", "1024")]] *)
  value : float;  (** the measurement; finite *)
  unit : string;  (** the value's unit, e.g. ["ms/op"] *)
}

(** One bench run's rows. *)
type t = {
  bench : string;  (** the producing bench: perf, throughput, ... *)
  params : (string * string) list;
      (** ledger-wide parameters, visible to every row's gate filter *)
  rows : row list;  (** in production order *)
}

val row :
  ?params:(string * string) list -> string -> string -> string -> float -> row
(** [row ~params layer name unit value] builds one row. *)

val num : float -> string
(** The writer's number format ([%.6g]), for numeric parameter values. *)

val make : bench:string -> full:bool -> ?params:(string * string) list ->
  row list -> t
(** A ledger whose parameters start with [run = quick | full]. *)

val to_string : t -> string
(** Render in the [sintra-ledger-v1] schema: one row per line, values in
    {!num} format.  Raises [Invalid_argument] on a non-finite value. *)

val of_string : string -> (t, string) result
(** Parse a [sintra-ledger-v1] document. *)

val write : t -> string
(** Write the ledger in the current directory, to [BENCH_<bench>.json]
    for a full run and [smoke_<bench>.json] for a quick one; returns the
    path. *)

val read : string -> (t, string) result
(** Read and parse a ledger file. *)

(** How a gate compares its matching rows against its bound. *)
type op =
  | Ge  (** every matching row is at least the bound *)
  | Gt  (** every matching row is above the bound *)
  | Le  (** every matching row is at most the bound *)
  | Eq  (** every matching row equals the bound *)
  | Count_ge  (** at least [bound] rows match *)

(** One floor or ceiling.  The value comparisons also fail when no row
    matches, so deleting a gated row fails its gate. *)
type gate = {
  bench : string;  (** the ledgers it applies to *)
  row : string;  (** ["layer.name"] of the rows it reads *)
  filter : (string * string) list;
      (** parameters a row must carry; a key that is also a ledger-wide
          parameter instead selects which ledgers the gate applies to *)
  op : op;  (** the comparison *)
  bound : float;  (** the floor, ceiling or count *)
}

val gates : gate list
(** The gate table: every floor the docs claim, for all five benches. *)

val gate_name : gate -> string
(** A unique, readable name, e.g.
    ["perf: speedup.tsig_batch_verify[run=full,bits=1024] >= 3"]. *)

val applies : t -> gate -> bool
(** The gate's bench is the ledger's, and it agrees with the ledger-wide
    parameters its filter names. *)

val matching : t -> gate -> row list
(** The rows of the ledger the gate reads. *)

val check : t -> string list
(** Apply every applicable gate; one message per failed gate, each
    starting with its {!gate_name}.  A ledger no gate applies to fails. *)
