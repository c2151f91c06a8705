type t = {
  congest : Mincut_congest.Config.t;
  run_real_primitives : bool;
}

let default =
  { congest = Mincut_congest.Config.default; run_real_primitives = true }

let fast = { default with run_real_primitives = false }

let log_star n =
  let rec go acc x = if x <= 2 then max 1 acc else go (acc + 1) (int_of_float (log (float_of_int x) /. log 2.0)) in
  go 1 n

let isqrt_ceil n = int_of_float (ceil (sqrt (float_of_int (max 1 n))))

let kp_mst_rounds (_ : t) ~n ~diameter = (isqrt_ceil n * log_star n) + diameter

let kp_partition_rounds = kp_mst_rounds

let sqrt_target ~n = isqrt_ceil n

(* Sum of One_respect.run's analytic schedules (its fast mode), with the
   run-measured edge loads replaced by their structural maxima: every
   tree-wide pipelined sweep carries at most O(k) items and every
   within-fragment wave at most h+1, so the charge is an upper schedule
   of any actual run over the same fragment geometry. *)
let one_respect_charged_rounds t ~n ~height ~fragments ~max_frag_height =
  let d = height in
  let k = fragments in
  let h = max_frag_height in
  kp_partition_rounds t ~n ~diameter:d
  (* BFS backbone *)
  + (d + 1)
  (* step1: fragment id agreement; broadcast the k-1 T_F edges *)
  + (2 * (h + 1))
  + (2 * (d + k))
  (* step2: child-fragment upcast (≤ k items); ancestor downcast
     (|A(v)| ≤ 2(h+1)); F(u) downcast (≤ k fragments) *)
  + (h + k)
  + ((2 * h) + (2 * (h + 1)))
  + ((2 * h) + k)
  (* step3: within-fragment delta wave; broadcast delta(F_i) *)
  + (h + 1)
  + (2 * (d + k))
  (* step4: local detection; merging nodes + T'_F edges (≤ 2k items) *)
  + 1
  + (2 * (d + (2 * k)))
  (* step5: per-edge LCA exchange (≤ 2(h+1) items); type-(i) counts;
     type-(ii) counts; rho_down via the delta_down machinery *)
  + (1 + (2 * (h + 1)))
  + (2 * (d + k))
  + ((2 * h) + 1)
  + ((h + 1) + (2 * (d + k)))
  (* finish: global min convergecast + broadcast *)
  + (2 * (d + 1))
