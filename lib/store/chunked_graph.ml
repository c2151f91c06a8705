module Graph = Mincut_graph.Graph
module Hash = Mincut_util.Hash

exception Store_error of string

type t = {
  dir : string;
  manifest : Chunk_io.manifest;
  residency : Residency.t;
}

let open_store ?instruments ~dir ~budget () =
  match Chunk_io.read_manifest ~dir with
  | Error e -> Error (Chunk_io.error_message e)
  | Ok manifest ->
      let load cid =
        match Chunk_io.read ~dir ~bits:manifest.Chunk_io.chunk_bits ~cid with
        | Ok chunk -> chunk
        | Error e -> raise (Store_error (Chunk_io.error_message e))
      in
      let residency = Residency.create ?instruments ~budget ~load () in
      Ok { dir; manifest; residency }

let n t = t.manifest.Chunk_io.n
let m t = t.manifest.Chunk_io.m
let total_weight t = t.manifest.Chunk_io.total_weight
let num_chunks t = t.manifest.Chunk_io.num_chunks
let chunk_bits t = t.manifest.Chunk_io.chunk_bits

(* Per chunk: off has count+1 cells, plus 6 scalar fields and 2 words of
   block overhead per array; nbr+wgt across all chunks total 4m cells. *)
let manifest_bytes (m : Chunk_io.manifest) =
  8 * (m.Chunk_io.n + (9 * m.Chunk_io.num_chunks) + (4 * m.Chunk_io.m))

let total_bytes t = manifest_bytes t.manifest

let structural_hash t = t.manifest.Chunk_io.hash

let chunk t cid =
  if cid < 0 || cid >= num_chunks t then
    invalid_arg (Printf.sprintf "Chunked_graph.chunk: cid %d out of range" cid);
  Residency.get t.residency cid

let iter_chunks t ~f =
  for cid = 0 to num_chunks t - 1 do
    f (chunk t cid)
  done

let chunk_of_node t v =
  if v < 0 || v >= n t then
    invalid_arg (Printf.sprintf "Chunked_graph: node %d out of range" v);
  let bits = chunk_bits t in
  (chunk t (Chunk.chunk_of ~bits v), Chunk.local_of ~bits v)

let weighted_degree t v =
  let c, local = chunk_of_node t v in
  let acc = ref 0 in
  Chunk.iter_neighbors c ~local ~f:(fun _ w -> acc := !acc + w);
  !acc

let iter_neighbors t v ~f =
  let c, local = chunk_of_node t v in
  Chunk.iter_neighbors c ~local ~f

(* Same recipe as the loader: n, then canonical (u, v, w) triples with
   u < v, ascending — chunk-major node order IS ascending node order. *)
let compute_structural_hash t =
  let h = Hash.create () in
  Hash.add_int h (n t);
  iter_chunks t ~f:(fun c ->
      for i = 0 to c.Chunk.count - 1 do
        let u = c.Chunk.base + i in
        Chunk.iter_neighbors c ~local:i ~f:(fun v w ->
            if v > u then begin
              Hash.add_int h u;
              Hash.add_int h v;
              Hash.add_int h w
            end)
      done);
  Hash.value h

let stats t = Residency.stats t.residency
let drop_resident t = Residency.drop_all t.residency

let to_graph t =
  let edges = ref [] in
  iter_chunks t ~f:(fun c ->
      for i = 0 to c.Chunk.count - 1 do
        let u = c.Chunk.base + i in
        Chunk.iter_neighbors c ~local:i ~f:(fun v w ->
            if v > u then edges := (u, v, w) :: !edges)
      done);
  Graph.create ~n:(n t) !edges
