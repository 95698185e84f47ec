(** Exact order statistics (nearest rank) for the benchmark's reports. *)

val nearest_rank_index : n:int -> float -> int
(** [nearest_rank_index ~n q] is the 0-based index of the [q]-quantile in a
    sorted sample of [n] values: rank [ceil (q *. n)], with rank 0 read as
    the minimum.  For [n = 3] and [q = 0.9] this is index 2 (the maximum).
    @raise Invalid_argument if [n <= 0] or [q] is outside [\[0, 1\]]. *)

val quantile : float list -> float -> float
(** The nearest-rank [q]-quantile of an unsorted, non-empty sample. *)

val median : float list -> float
(** [quantile xs 0.5]. *)

val mean : float list -> float
(** Arithmetic mean; [0.0] on the empty list. *)
