(** Bridges (cut edges) by Tarjan's low-link algorithm.

    Su's concurrent algorithm [SPAA 2014] reduces min cut to bridge
    finding in a sampled subgraph (distributedly via Thurimella's
    algorithm); this module is the sequential computation behind our
    behavioural model of that baseline, and an independent oracle for
    λ = 1 detection in tests. *)

val bridges : Graph.t -> int list
(** Edge ids of all bridges.  A parallel pair is never a bridge
    (multigraph semantics). *)
