(* Order statistics for the benchmark's reports and its compare mode. *)

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. Reported latencies
   are always real samples, never interpolations. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Median as Python's statistics.median: the mean of the middle pair on
   an even count. *)
let median xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's statistics.quantiles(xs, n=4) computes
   them (the default "exclusive" method), so quartiles printed here
   match an external check. *)
let quartiles xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Compare mode's rule: two result sets of the same code agree when
   their medians differ, either way, by at most [bound] of the first. *)
let medians_agree ~bound a b =
  let ma = median a in
  Float.abs ((median b -. ma) /. ma) <= bound
