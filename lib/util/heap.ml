type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable len : int;
}

let create ~cmp = { cmp; data = [||]; len = 0 }

let grow t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = max 8 (2 * cap) in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(p) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(p);
      t.data.(p) <- tmp;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.len && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t 0
    end;
    Some top
  end
