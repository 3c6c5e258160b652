type ('p, 'v) t = {
  compare : 'p -> 'p -> int;
  mutable heap : ('p * 'v) array;
  mutable size : int;
}

let create compare = { compare; heap = [||]; size = 0 }
let is_empty q = q.size = 0

let swap q i j =
  let t = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- t

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if q.compare (fst q.heap.(i)) (fst q.heap.(parent)) < 0 then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && q.compare (fst q.heap.(l)) (fst q.heap.(!smallest)) < 0 then smallest := l;
  if r < q.size && q.compare (fst q.heap.(r)) (fst q.heap.(!smallest)) < 0 then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q p v =
  if q.size = Array.length q.heap then begin
    let cap = max 8 (2 * q.size) in
    let heap = Array.make cap (p, v) in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end;
  q.heap.(q.size) <- (p, v);
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then raise Not_found;
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q 0
  end;
  top
