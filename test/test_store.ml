(* Tests for the chunked on-disk graph store: packed addressing, the
   versioned chunk format (CRC / magic / version / truncation), LRU
   residency under a byte budget, bulk-load round-trips with
   Graph_key-compatible structural hashes, and the chunk-at-a-time
   traversals pinned against the real CONGEST engine. *)

module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Edge_stream = Mincut_graph.Edge_stream
module Tree = Mincut_graph.Tree
module Bfs = Mincut_graph.Bfs
module Primitives = Mincut_congest.Primitives
module Network = Mincut_congest.Network
module Cost = Mincut_congest.Cost
module Rng = Mincut_util.Rng
module Chunk = Mincut_store.Chunk
module Chunk_io = Mincut_store.Chunk_io
module Residency = Mincut_store.Residency
module Bulk_loader = Mincut_store.Bulk_loader
module Chunked_graph = Mincut_store.Chunked_graph
module Traverse = Mincut_store.Traverse
module Graph_key = Mincut_serve.Graph_key
module Metrics = Mincut_serve.Metrics
module Store_metrics = Mincut_serve.Store_metrics
open Test_helpers

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Printf.sprintf "_store_test/d%03d" !dir_counter

let ok_or_fail = function Ok x -> x | Error e -> Alcotest.fail e

(* Bulk-load an in-memory graph into a fresh store directory. *)
let load_graph ?chunk_bits g =
  let dir = fresh_dir () in
  let bl = ok_or_fail (Bulk_loader.create ~dir ~n:(Graph.n g) ?chunk_bits ()) in
  Graph.iter_edges
    (fun e -> Bulk_loader.add_edge bl ~u:e.Graph.u ~v:e.Graph.v ~w:e.Graph.w)
    g;
  let manifest = ok_or_fail (Bulk_loader.finalize bl) in
  (dir, manifest)

let open_unbounded dir =
  ok_or_fail (Chunked_graph.open_store ~dir ~budget:max_int ())

(* ---- addressing ------------------------------------------------------ *)

let test_addressing () =
  List.iter
    (fun bits ->
      List.iter
        (fun v ->
          let cid = Chunk.chunk_of ~bits v in
          let local = Chunk.local_of ~bits v in
          check_int "repack" v ((cid lsl bits) lor local);
          check_bool "local within chunk" true (local >= 0 && local < 1 lsl bits))
        [ 0; 1; 5; (1 lsl bits) - 1; 1 lsl bits; (3 lsl bits) + 7 ])
    [ Chunk.min_bits; 7; 13; Chunk.max_bits ];
  (* chunk count covers the node range exactly *)
  check_int "num_chunks" 3 (Chunk.num_chunks ~bits:4 ~n:33);
  check_int "last chunk short" 1 (Chunk.count_of ~bits:4 ~n:33 ~cid:2);
  check_int "full chunk" 16 (Chunk.count_of ~bits:4 ~n:33 ~cid:0);
  (* default_bits stays in the legal band and reaches its floor *)
  List.iter
    (fun n ->
      let b = Chunk.default_bits ~n in
      check_bool "bits in band" true (b >= Chunk.min_bits && b <= Chunk.max_bits))
    [ 1; 10; 1000; 131072; 10_000_000 ]

(* ---- bulk load round-trip (qcheck) ----------------------------------- *)

let prop_roundtrip g =
  let dir, manifest = load_graph ~chunk_bits:4 g in
  let cg = open_unbounded dir in
  let g' = Chunked_graph.to_graph cg in
  Graph.equal_structure g g'
  && Chunked_graph.structural_hash cg = Graph_key.structural_hash g
  && Chunked_graph.compute_structural_hash cg = manifest.Chunk_io.hash
  && Chunked_graph.m cg = Graph.m g
  && Array.for_all
       (fun v -> Chunked_graph.weighted_degree cg v = Graph.weighted_degree g v)
       (Array.init (Graph.n g) (fun v -> v))

let test_roundtrip_small_bag () =
  List.iter
    (fun (name, g) -> check_bool name true (prop_roundtrip g))
    (small_connected_graphs ())

(* ---- corruption surfaces as typed errors ----------------------------- *)

let flip_byte path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let buf = Bytes.create len in
  really_input ic buf 0 len;
  close_in ic;
  Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc buf;
  close_out oc

let corrupt_store () =
  let g = Generators.grid 5 5 in
  let dir, _ = load_graph ~chunk_bits:4 g in
  (dir, Filename.concat dir (Chunk_io.chunk_filename ~cid:0))

let test_crc_corruption () =
  let dir, path = corrupt_store () in
  (* a payload byte flip must surface as a CRC mismatch, not bad data *)
  flip_byte path 30;
  (match Chunk_io.read ~dir ~bits:4 ~cid:0 with
  | Error (Chunk_io.Crc_mismatch _) -> ()
  | Error e -> Alcotest.failf "expected Crc_mismatch, got: %s" (Chunk_io.error_message e)
  | Ok _ -> Alcotest.fail "corrupted chunk read back cleanly");
  (* and the lazy-faulting surface turns it into Store_error *)
  let cg = open_unbounded dir in
  match Chunked_graph.chunk cg 0 with
  | _ -> Alcotest.fail "Store_error expected"
  | exception Chunked_graph.Store_error msg ->
      check_bool "error message is non-empty" true (String.length msg > 0)

let test_bad_magic_and_version () =
  let dir, path = corrupt_store () in
  flip_byte path 0;
  (match Chunk_io.read ~dir ~bits:4 ~cid:0 with
  | Error (Chunk_io.Bad_magic _) -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got: %s" (Chunk_io.error_message e)
  | Ok _ -> Alcotest.fail "bad magic read back cleanly");
  let dir2, path2 = corrupt_store () in
  ignore dir2;
  flip_byte path2 4;
  match Chunk_io.read ~dir:dir2 ~bits:4 ~cid:0 with
  | Error (Chunk_io.Bad_version _) -> ()
  | Error e -> Alcotest.failf "expected Bad_version, got: %s" (Chunk_io.error_message e)
  | Ok _ -> Alcotest.fail "bad version read back cleanly"

let test_truncation () =
  let dir, path = corrupt_store () in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = len - 5 in
  let buf = Bytes.create keep in
  really_input ic buf 0 keep;
  close_in ic;
  let oc = open_out_bin path in
  output_bytes oc buf;
  close_out oc;
  match Chunk_io.read ~dir ~bits:4 ~cid:0 with
  | Error (Chunk_io.Truncated _) -> ()
  | Error e -> Alcotest.failf "expected Truncated, got: %s" (Chunk_io.error_message e)
  | Ok _ -> Alcotest.fail "truncated chunk read back cleanly"

let test_open_requires_manifest () =
  (match Chunked_graph.open_store ~dir:"_store_test/never_created" ~budget:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened a store with no manifest");
  (* an aborted load (no finalize) must refuse to open: the manifest is
     the commit point *)
  let dir = fresh_dir () in
  let bl = ok_or_fail (Bulk_loader.create ~dir ~n:8 ()) in
  Bulk_loader.add_edge bl ~u:0 ~v:1 ~w:1;
  match Chunked_graph.open_store ~dir ~budget:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened an unfinalized store"

(* ---- residency ------------------------------------------------------- *)

(* Synthetic single-node chunks of a fixed 80-byte footprint make the
   LRU arithmetic exact. *)
let synthetic_chunk cid =
  { Chunk.cid; base = cid; count = 1; off = [| 0; 0 |]; nbr = [||]; wgt = [||] }

let test_lru_eviction_order () =
  let loads = ref [] in
  let r =
    Residency.create ~budget:160
      ~load:(fun cid ->
        loads := cid :: !loads;
        synthetic_chunk cid)
      ()
  in
  let touch cid = ignore (Residency.get r cid) in
  touch 0;
  touch 1;
  touch 0;
  (* 0 is now the most recent of the two residents *)
  touch 2;
  (* over budget: the least recently used (1) must go, not 0 *)
  touch 0;
  let st = Residency.stats r in
  check_int "hits" 2 st.Residency.hits;
  check_int "misses" 3 st.Residency.misses;
  check_int "evictions" 1 st.Residency.evictions;
  check_int "resident" 2 st.Residency.resident;
  touch 1;
  (* 1 was evicted, so this is a reload *)
  check_int "reload of evicted chunk" 4 (Residency.stats r).Residency.misses;
  check_bool "load log" true (!loads = [ 1; 2; 1; 0 ])

let test_single_oversized_chunk_stays () =
  (* a chunk larger than the whole budget must still be returned (and
     counted), never evicted mid-handout *)
  let r = Residency.create ~budget:10 ~load:synthetic_chunk () in
  ignore (Residency.get r 0);
  let st = Residency.stats r in
  check_int "resident" 1 st.Residency.resident;
  check_bool "bytes over budget tolerated for a single chunk" true
    (st.Residency.bytes_resident > st.Residency.budget);
  ignore (Residency.get r 1);
  let st = Residency.stats r in
  check_int "previous evicted" 1 st.Residency.evictions;
  check_int "only the newcomer stays" 1 st.Residency.resident

let prop_eviction_under_budget accesses =
  let g = Generators.grid 12 12 in
  let dir, _ = load_graph ~chunk_bits:4 g in
  let cg = ok_or_fail (Chunked_graph.open_store ~dir ~budget:2048 ()) in
  let chunks = Chunked_graph.num_chunks cg in
  List.for_all
    (fun a ->
      ignore (Chunked_graph.chunk cg (a mod chunks));
      let st = Chunked_graph.stats cg in
      st.Residency.bytes_resident <= st.Residency.budget)
    accesses

let test_drop_resident () =
  let g = Generators.grid 5 5 in
  let dir, _ = load_graph ~chunk_bits:4 g in
  let cg = open_unbounded dir in
  Chunked_graph.iter_chunks cg ~f:(fun _ -> ());
  check_bool "resident after sweep" true
    ((Chunked_graph.stats cg).Residency.resident > 0);
  Chunked_graph.drop_resident cg;
  let st = Chunked_graph.stats cg in
  check_int "cold" 0 st.Residency.resident;
  check_int "no bytes" 0 st.Residency.bytes_resident;
  (* counters survive the drop *)
  check_bool "misses kept" true (st.Residency.misses > 0)

let test_sweep_locality () =
  let g = Generators.grid 6 6 in
  let dir, _ = load_graph ~chunk_bits:4 g in
  let cg = open_unbounded dir in
  let chunks = Chunked_graph.num_chunks cg in
  Chunked_graph.iter_chunks cg ~f:(fun _ -> ());
  let st = Chunked_graph.stats cg in
  check_int "one miss per chunk" chunks st.Residency.misses;
  check_int "no evictions under an unbounded budget" 0 st.Residency.evictions;
  Chunked_graph.iter_chunks cg ~f:(fun _ -> ());
  check_int "second sweep all hits" chunks (Chunked_graph.stats cg).Residency.hits

(* ---- metrics adapter ------------------------------------------------- *)

let test_store_metrics_adapter () =
  let registry = Metrics.create () in
  let instruments = Store_metrics.instruments registry in
  let g = Generators.grid 12 12 in
  let dir, _ = load_graph ~chunk_bits:4 g in
  let cg =
    ok_or_fail (Chunked_graph.open_store ~instruments ~dir ~budget:2048 ())
  in
  Chunked_graph.iter_chunks cg ~f:(fun _ -> ());
  Chunked_graph.iter_chunks cg ~f:(fun _ -> ());
  let st = Chunked_graph.stats cg in
  check_bool "budget forced evictions" true (st.Residency.evictions > 0);
  let snap = Metrics.snapshot registry in
  let counter name = List.assoc name snap.Metrics.counters in
  check_int "hits exported" st.Residency.hits (counter "store.chunk_hits");
  check_int "misses exported" st.Residency.misses (counter "store.chunk_misses");
  check_int "evictions exported" st.Residency.evictions
    (counter "store.chunk_evictions");
  check_bool "residency gauge tracks bytes" true
    (List.assoc "store.bytes_resident" snap.Metrics.gauges
    = float_of_int st.Residency.bytes_resident)

(* ---- streaming generators -------------------------------------------- *)

let test_torus_stream_matches_generator () =
  let acc = ref [] in
  Edge_stream.torus ~rows:4 ~cols:5 ~weight:(fun () -> 1)
    ~emit:(fun u v w -> acc := (u, v, w) :: !acc);
  let g = Graph.create ~n:20 !acc in
  check_bool "torus stream = Generators.torus" true
    (Graph.equal_structure g (Generators.torus 4 5))

let test_gnp_stream_matches_generator () =
  (* same seed, same draws: the materialized generator delegates to the
     stream, so edge id order must match exactly, not just the multiset *)
  let stream_edges =
    let rng = Rng.create 4242 in
    let acc = ref [] in
    Edge_stream.gnp ~rng ~n:30 ~p:0.2
      ~weight:(fun () -> 1)
      ~emit:(fun u v w -> acc := (u, v, w) :: !acc);
    !acc
  in
  let g = Graph.create ~n:30 stream_edges in
  let g' = Generators.gnp ~rng:(Rng.create 4242) 30 0.2 in
  check_bool "same structure" true (Graph.equal_structure g g');
  check_bool "same edge id order" true
    (Array.for_all2
       (fun (a : Graph.edge) (b : Graph.edge) ->
         a.Graph.u = b.Graph.u && a.Graph.v = b.Graph.v && a.Graph.w = b.Graph.w)
       (Graph.edges g) (Graph.edges g'))

(* ---- traversals vs the engine ---------------------------------------- *)

let test_bfs_matches_engine () =
  List.iter
    (fun (name, g) ->
      let dir, _ = load_graph ~chunk_bits:4 g in
      let cg = open_unbounded dir in
      let b = Traverse.bfs cg ~root:0 in
      let tree, cost = Primitives.bfs_tree g ~root:0 in
      let reference = Bfs.run g ~source:0 in
      check_int (name ^ ": rounds = engine rounds") cost.Cost.rounds
        b.Traverse.rounds;
      check_bool (name ^ ": distances") true (b.Traverse.dist = reference.Bfs.dist);
      check_bool (name ^ ": parents = engine min-id adoption") true
        (b.Traverse.parent = tree.Tree.parent);
      check_int (name ^ ": reached") (Graph.n g) b.Traverse.reached)
    (small_connected_graphs ())

let test_upcast_matches_engine () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let tree = Tree.bfs_tree g ~root:0 in
      (* one item everywhere: for n >= 2 some non-root node always
         sends, so the engine's last-traffic round is well-defined *)
      let sources = List.init n (fun v -> v) in
      let initial = Array.make n [] in
      List.iter (fun v -> initial.(v) <- [ v ]) sources;
      let _items, cost = Primitives.upcast_distinct g ~tree ~initial in
      check_int
        (name ^ ": simulated upcast rounds = engine rounds")
        cost.Cost.rounds
        (Traverse.upcast_rounds ~parent:tree.Tree.parent ~root:0 ~sources))
    (small_connected_graphs ())

let test_upcast_edge_cases () =
  check_int "no sources" 0 (Traverse.upcast_rounds ~parent:[| -1 |] ~root:0 ~sources:[]);
  (* items already at the root never travel *)
  check_int "all at root" 0
    (Traverse.upcast_rounds ~parent:[| -1; 0 |] ~root:0 ~sources:[ 0; 0 ])

(* ---- manifest totals ------------------------------------------------- *)

let test_manifest_totals () =
  let g = Generators.gnp_connected ~rng:(Rng.create 5) 40 0.2 in
  let dir, manifest = load_graph g in
  let cg = open_unbounded dir in
  check_int "n" (Graph.n g) (Chunked_graph.n cg);
  check_int "m" (Graph.m g) (Chunked_graph.m cg);
  check_int "total weight" (Graph.total_weight g) (Chunked_graph.total_weight cg);
  check_int "num_chunks recorded" manifest.Chunk_io.num_chunks
    (Chunked_graph.num_chunks cg);
  check_bool "total_bytes from manifest" true
    (Chunked_graph.total_bytes cg = Chunked_graph.manifest_bytes manifest)

let suite =
  [
    tc "store: packed addressing round-trips" test_addressing;
    tc "store: bulk-load round-trip over the small-graph bag"
      test_roundtrip_small_bag;
    qtest ~count:60 "store: qcheck bulk-load round-trip + structural hash"
      (arbitrary_connected ()) prop_roundtrip;
    tc "store: payload byte flip -> Crc_mismatch / Store_error"
      test_crc_corruption;
    tc "store: bad magic and bad version are typed errors"
      test_bad_magic_and_version;
    tc "store: truncated chunk file -> Truncated" test_truncation;
    tc "store: manifest is the commit point" test_open_requires_manifest;
    tc "store: LRU evicts last-used first" test_lru_eviction_order;
    tc "store: oversized single chunk survives its own handout"
      test_single_oversized_chunk_stays;
    qtest ~count:40 "store: resident bytes never exceed the budget"
      QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 1000))
      prop_eviction_under_budget;
    tc "store: drop_resident cold-starts, counters survive" test_drop_resident;
    tc "store: chunk-major sweeps touch each chunk once" test_sweep_locality;
    tc "store: residency counters export through Metrics"
      test_store_metrics_adapter;
    tc "store: torus stream matches the materialized generator"
      test_torus_stream_matches_generator;
    tc "store: gnp stream is bit-identical to Generators.gnp"
      test_gnp_stream_matches_generator;
    tc "store: chunked BFS matches the engine's rounds and tree"
      test_bfs_matches_engine;
    tc "store: pipelined upcast simulation matches the engine"
      test_upcast_matches_engine;
    tc "store: upcast edge cases" test_upcast_edge_cases;
    tc "store: manifest totals match the source graph" test_manifest_totals;
  ]
