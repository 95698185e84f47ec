(* Order statistics for the benchmark's reports.

   Quantiles are exact nearest-rank values over the full sample: the
   q-quantile of n sorted values is the one at 1-based rank ceil(q*n).
   Neither histogram buckets (which report a bucket's upper bound) nor a
   floor(q*(n-1)) index (which reads low on small samples) is used. *)

let nearest_rank_index ~(n : int) (q : float) : int =
  if n <= 0 then invalid_arg "Stats.nearest_rank_index: empty sample";
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Stats.nearest_rank_index: q outside [0, 1]";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  (* ceil(q*n) is the rank; rank 0 (q = 0) means the minimum. *)
  max 0 (min (n - 1) (rank - 1))

let quantile_sorted (sorted : float array) (q : float) : float =
  sorted.(nearest_rank_index ~n:(Array.length sorted) q)

let sorted_of_list (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile (xs : float list) (q : float) : float =
  quantile_sorted (sorted_of_list xs) q

let median (xs : float list) : float = quantile xs 0.5

let mean (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
