module Tree = Mincut_graph.Tree
module Generators = Mincut_graph.Generators
module Edge_stream = Mincut_graph.Edge_stream
module Primitives = Mincut_congest.Primitives
module Network = Mincut_congest.Network
module Cost = Mincut_congest.Cost
module One_respect = Mincut_core.One_respect
module Params = Mincut_core.Params
module Fragments = Mincut_mst.Fragments
module Store = Mincut_store
module Rng = Mincut_util.Rng
module Json = Mincut_util.Json

type point = { n : int; measured : float; envelope : float }

type fit = {
  quantity : string;
  envelope_name : string;
  points : point list;
  min_ratio : float;
  max_ratio : float;
  ok : bool;
}

type report = { slack : float; fits : fit list; ok : bool }

(* Supercritical Erdős–Rényi: p = 8·ln n / n keeps the graph connected
   w.h.p. with diameter O(log n) — the family every n-sweep in the repo
   uses, because the √n term must dominate the D term for the fits to
   mean anything.  Seeded per point so ladders are reproducible. *)
let supercritical ~seed n =
  let rng = Rng.create seed in
  let p = 8.0 *. log (float_of_int n) /. float_of_int n in
  Generators.gnp_connected ~rng n (Float.min 1.0 p)

let ladder ~quick = if quick then [ 16; 32; 64 ] else [ 16; 32; 64; 128 ]

let default_slack = 2.5

let log2f n = log (float_of_int (max 2 n)) /. log 2.0

(* Largest max_words over every engine audit hanging off the tree: the
   measured per-message payload, in words. *)
let max_audit_words (t : Cost.t) =
  let best = ref 0 in
  let rec walk (s : Cost.span) =
    (match s.Cost.audit with
    | Some a -> if a.Network.max_words > !best then best := a.Network.max_words
    | None -> ());
    List.iter walk s.Cost.children
  in
  List.iter walk t.Cost.spans;
  !best

(* One ladder point: everything measured off a single seeded graph. *)
type sample = {
  s_n : int;
  bfs_rounds : int;
  bfs_envelope : int;      (* height + 2 *)
  upcast_rounds : int;
  upcast_envelope : int;   (* height + ⌈√n⌉ items *)
  or_rounds : int;
  or_envelope : int;       (* ⌈√n⌉·log* n + height *)
  or_words : int;          (* max payload over the run's engine audits *)
}

(* both ladders' graphs derive from this one seed *)
let ladder_seed = 9000

let sample n =
  let g = supercritical ~seed:(ladder_seed + n) n in
  let root = 0 in
  let tree, bfs_cost = Primitives.bfs_tree g ~root in
  let h = Tree.height tree in
  let k = Params.sqrt_target ~n in
  let initial = Array.make n [] in
  for v = 0 to k - 1 do
    initial.(v) <- [ v ]
  done;
  let _items, up_cost = Primitives.upcast_distinct g ~tree ~initial in
  let r = One_respect.run ~params:Params.default g tree in
  {
    s_n = n;
    bfs_rounds = bfs_cost.Cost.rounds;
    bfs_envelope = h + 2;
    upcast_rounds = up_cost.Cost.rounds;
    upcast_envelope = h + k;
    or_rounds = r.One_respect.cost.Cost.rounds;
    or_envelope = (k * Params.log_star n) + h;
    or_words = max_audit_words r.One_respect.cost;
  }

let fit ~slack ~quantity ~envelope_name points =
  let ratios =
    List.map (fun p -> p.measured /. Float.max 1.0 p.envelope) points
  in
  let min_ratio = List.fold_left Float.min infinity ratios in
  let max_ratio = List.fold_left Float.max 0.0 ratios in
  (* The growth law holds when the measured/envelope ratio is flat
     across the ladder — within a multiplicative [slack].  An absolute
     threshold would bake in engine constants; a ratio-of-ratios test
     only asserts the *shape*. *)
  let ok = max_ratio <= slack *. min_ratio in
  { quantity; envelope_name; points; min_ratio; max_ratio; ok }

let run ?(quick = false) ?(slack = default_slack) () =
  let samples = List.map sample (ladder ~quick) in
  let pts f g =
    List.map
      (fun s ->
        { n = s.s_n; measured = float_of_int (f s); envelope = g s })
      samples
  in
  let fits =
    [
      fit ~slack ~quantity:"bfs rounds" ~envelope_name:"D + 2"
        (pts (fun s -> s.bfs_rounds) (fun s -> float_of_int s.bfs_envelope));
      fit ~slack ~quantity:"upcast rounds (sqrt n items)"
        ~envelope_name:"sqrt n + D"
        (pts (fun s -> s.upcast_rounds) (fun s -> float_of_int s.upcast_envelope));
      fit ~slack ~quantity:"one-respect rounds"
        ~envelope_name:"sqrt n * log* n + D"
        (pts (fun s -> s.or_rounds) (fun s -> float_of_int s.or_envelope));
      fit ~slack ~quantity:"one-respect payload words" ~envelope_name:"log2 n"
        (pts (fun s -> s.or_words) (fun s -> log2f s.s_n));
    ]
  in
  { slack; fits; ok = List.for_all (fun (f : fit) -> f.ok) fits }

(* ---- the large-n store ladder -------------------------------------- *)

(* The in-memory ladder runs the engine at n ≤ 128, the supercritical
   (diameter O(log n)) regime.  The store ladder covers the opposite
   regime — tori, where D = Θ(√n) — at sizes the engine cannot touch,
   by measuring what still runs chunk-at-a-time (BFS, the pipelined
   upcast simulation, the fragment decomposition) and charging the
   Theorem 2.1 schedule over the measured fragment geometry. *)

type store_sample = {
  st_n : int;  (** actual node count, rows · cols *)
  st_dir : string;
  st_chunk_bits : int;
  st_num_chunks : int;
  st_total_bytes : int;
  st_budget : int;
  st_bfs_rounds : int;
  st_bfs_envelope : int;  (** D + 2 — the torus diameter is known *)
  st_upcast_rounds : int;
  st_upcast_envelope : int;  (** ⌈√n⌉ + D *)
  st_or_rounds : int;  (** charged Theorem 2.1 schedule *)
  st_or_envelope : int;  (** ⌈√n⌉·log* n + D *)
  st_fragments : int;
  st_fragment_bound : int;  (** n / ⌈√n⌉ + 1, the KP count contract *)
  st_frag_height : int;
  st_frag_height_envelope : int;  (** ⌈√n⌉, the KP height contract *)
  st_stats : Store.Residency.stats;
}

let default_scratch = "_store"

let store_ladder ~quick = if quick then [ 256; 1024 ] else [ 4096; 32768; 131072 ]

(* Deterministic per (dims, seed, bits), so a directory whose manifest
   matches is byte-for-byte what a rebuild would produce — safe to
   reuse as a cache, and a half-overwritten rebuild converges. *)
let ensure_store ~seed ~bits ~rows ~cols () =
  let n = rows * cols in
  let dir =
    Filename.concat default_scratch (Printf.sprintf "torus_%dx%d_b%d_s%d" rows cols bits seed)
  in
  match Store.Chunk_io.read_manifest ~dir with
  | Ok m when m.Store.Chunk_io.n = n && m.Store.Chunk_io.chunk_bits = bits ->
      Ok (dir, m)
  | Ok _ | Error _ -> (
      match Store.Bulk_loader.create ~dir ~n ~chunk_bits:bits () with
      | Error e -> Error e
      | Ok bl ->
          let rng = Rng.create (seed + (31 * n)) in
          Edge_stream.torus ~rows ~cols
            ~weight:(fun () -> 1 + Rng.int rng 4)
            ~emit:(fun u v w -> Store.Bulk_loader.add_edge bl ~u ~v ~w);
          Result.map (fun m -> (dir, m)) (Store.Bulk_loader.finalize bl))

let store_sample ?instruments ~seed n =
  let side = Params.sqrt_target ~n:(max 9 n) in
  let rows = side and cols = side in
  let n = rows * cols in
  let bits = Store.Chunk.default_bits ~n in
  match ensure_store ~seed ~bits ~rows ~cols () with
  | Error e -> Error e
  | Ok (dir, manifest) -> (
      let total = Store.Chunked_graph.manifest_bytes manifest in
      (* a quarter of the working set: every whole-graph pass must evict *)
      let budget = max 1 (total / 4) in
      match Store.Chunked_graph.open_store ?instruments ~dir ~budget () with
      | Error e -> Error e
      (* the residency loader faults chunks lazily, so [Store_error] is
         the store's to raise and this layer's to consume (the exnflow
         store-typed boundary) *)
      | exception Store.Chunked_graph.Store_error e -> Error e
      | Ok cg -> (
          match
            let b = Store.Traverse.bfs cg ~root:0 in
            let k = Params.sqrt_target ~n in
            let up =
              Store.Traverse.upcast_rounds ~parent:b.Store.Traverse.parent
                ~root:0
                ~sources:(List.init (min k n) (fun i -> i))
            in
            let tree =
              Tree.of_parents ~graph_n:n ~root:0 ~parent:b.Store.Traverse.parent
            in
            let fr = Fragments.partition tree ~target:k in
            (match Fragments.check_invariants fr with
            | Ok _ -> ()
            | Error e ->
                invalid_arg ("fragment decomposition broke the KP contract: " ^ e));
            let frags = Fragments.count fr in
            let ecc = b.Store.Traverse.ecc in
            (* the torus is vertex-transitive: ecc from any root is D *)
            let diameter = ecc in
            {
              st_n = n;
              st_dir = dir;
              st_chunk_bits = bits;
              st_num_chunks = Store.Chunked_graph.num_chunks cg;
              st_total_bytes = total;
              st_budget = budget;
              st_bfs_rounds = b.Store.Traverse.rounds;
              st_bfs_envelope = diameter + 2;
              st_upcast_rounds = up;
              st_upcast_envelope = k + diameter;
              st_or_rounds =
                Params.one_respect_charged_rounds Params.default ~n ~height:ecc
                  ~fragments:frags ~max_frag_height:(Fragments.max_height fr);
              st_or_envelope = (k * Params.log_star n) + diameter;
              st_fragments = frags;
              st_fragment_bound = (n / k) + 1;
              st_frag_height = Fragments.max_height fr;
              st_frag_height_envelope = k;
              st_stats = Store.Chunked_graph.stats cg;
            }
          with
          | s -> Ok s
          | exception Store.Chunked_graph.Store_error e -> Error e
          | exception Invalid_argument e -> Error e))

let store_samples ?(quick = false) () =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
        match store_sample ~seed:ladder_seed n with
        | Ok s -> go (s :: acc) rest
        | Error e -> Error (Printf.sprintf "store ladder n=%d: %s" n e))
  in
  go [] (store_ladder ~quick)

let fit_store ?(slack = default_slack) samples =
  let pts f g =
    List.map
      (fun s -> { n = s.st_n; measured = float_of_int (f s); envelope = g s })
      samples
  in
  let fits =
    [
      fit ~slack ~quantity:"store bfs rounds" ~envelope_name:"D + 2"
        (pts (fun s -> s.st_bfs_rounds) (fun s -> float_of_int s.st_bfs_envelope));
      fit ~slack ~quantity:"store upcast rounds (sqrt n items)"
        ~envelope_name:"sqrt n + D"
        (pts
           (fun s -> s.st_upcast_rounds)
           (fun s -> float_of_int s.st_upcast_envelope));
      fit ~slack ~quantity:"store one-respect charged rounds"
        ~envelope_name:"sqrt n * log* n + D"
        (pts (fun s -> s.st_or_rounds) (fun s -> float_of_int s.st_or_envelope));
      (* fragment COUNT varies freely below its bound (a height-√n tree
         needs only O(1) fragments of height √n), so the count is held
         to the KP contract inside [store_sample]; the flat quantity is
         the fragment height against its ⌈√n⌉ target *)
      fit ~slack ~quantity:"store fragment height" ~envelope_name:"sqrt n"
        (pts
           (fun s -> s.st_frag_height)
           (fun s -> float_of_int s.st_frag_height_envelope));
    ]
  in
  { slack; fits; ok = List.for_all (fun (f : fit) -> f.ok) fits }

let store_sample_to_json s =
  let st = s.st_stats in
  Json.Obj
    [
      ("n", Json.Int s.st_n);
      ("dir", Json.String s.st_dir);
      ("chunk_bits", Json.Int s.st_chunk_bits);
      ("num_chunks", Json.Int s.st_num_chunks);
      ("total_bytes", Json.Int s.st_total_bytes);
      ("budget_bytes", Json.Int s.st_budget);
      ("bfs_rounds", Json.Int s.st_bfs_rounds);
      ("bfs_envelope", Json.Int s.st_bfs_envelope);
      ("upcast_rounds", Json.Int s.st_upcast_rounds);
      ("upcast_envelope", Json.Int s.st_upcast_envelope);
      ("one_respect_charged_rounds", Json.Int s.st_or_rounds);
      ("one_respect_envelope", Json.Int s.st_or_envelope);
      ("fragments", Json.Int s.st_fragments);
      ("fragment_count_bound", Json.Int s.st_fragment_bound);
      ("fragment_height", Json.Int s.st_frag_height);
      ("fragment_height_envelope", Json.Int s.st_frag_height_envelope);
      ( "store",
        Json.Obj
          [
            ("hits", Json.Int st.Store.Residency.hits);
            ("misses", Json.Int st.Store.Residency.misses);
            ("evictions", Json.Int st.Store.Residency.evictions);
            ("resident_chunks", Json.Int st.Store.Residency.resident);
            ("bytes_resident", Json.Int st.Store.Residency.bytes_resident);
            ("budget_bytes", Json.Int st.Store.Residency.budget);
          ] );
    ]

let point_to_json p =
  Json.Obj
    [
      ("n", Json.Int p.n);
      ("measured", Json.Float p.measured);
      ("envelope", Json.Float p.envelope);
    ]

let fit_to_json f =
  Json.Obj
    [
      ("quantity", Json.String f.quantity);
      ("envelope", Json.String f.envelope_name);
      ("points", Json.List (List.map point_to_json f.points));
      ("min_ratio", Json.Float f.min_ratio);
      ("max_ratio", Json.Float f.max_ratio);
      ("ok", Json.Bool f.ok);
    ]

let to_json r =
  Json.Obj
    [
      ("slack", Json.Float r.slack);
      ("fits", Json.List (List.map fit_to_json r.fits));
      ("ok", Json.Bool r.ok);
    ]

let describe r =
  List.map
    (fun (f : fit) ->
      Printf.sprintf "%s %s vs %s: ratio %.2f..%.2f over %s (slack %.1f)"
        (if f.ok then "ok  " else "FAIL")
        f.quantity f.envelope_name f.min_ratio f.max_ratio
        (String.concat ","
           (List.map (fun p -> string_of_int p.n) f.points))
        r.slack)
    r.fits
