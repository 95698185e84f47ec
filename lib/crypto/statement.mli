(** Staged statements: the host-side work of checking signatures on one
    statement, done once per party.

    A staged statement is one [(ctx, statement)] pair with its framed
    SHA-256 digest (computed on first use; verified-share cache keys are
    built from it instead of from the statement bytes) and its
    {!Rsa.prehash} (the FDH expansions and the (key, signature) pairs that
    already passed against it).

    A {!table} holds one party's staged statements, grouped by [ctx] (the
    owning protocol instance's pid) like {!Share_cache}: the group is
    evicted when the instance is garbage-collected, {!clear} empties it on
    a crash, and it never holds more than its capacity (FIFO eviction).
    Nothing here charges virtual time or changes a verdict: a statement
    evicted early is simply staged again. *)

type t
(** One staged statement. *)

val ctx : t -> string
(** The domain-separation context. *)

val msg : t -> string
(** The statement bytes. *)

val digest : t -> string
(** SHA-256 over the length-framed [[ctx; msg]]
    ({!Hashes.Sha256.digest_framed}), computed once. *)

val prehash : t -> Rsa.prehash
(** The statement's FDH stage, shared by every signature checked or made
    through it. *)

type table
(** One party's staged statements. *)

val table : cap:int -> table
(** An empty table holding at most [cap] statements.
    @raise Invalid_argument if [cap < 1]. *)

val stage : table -> ctx:string -> string -> t * bool
(** The table's statement for [(ctx, msg)], staged now if absent (evicting
    the oldest live statement at capacity); the flag tells whether it was
    already staged. *)

val evict_group : table -> string -> unit
(** Drop every statement staged under this [ctx]. *)

val clear : table -> unit
(** Drop everything (crash). *)

val size : table -> int
(** Statements currently staged ([<= cap] always). *)
