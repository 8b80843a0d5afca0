(* A bucketed calendar queue over an intrusive node arena.

   Layout: nodes live in parallel flat arrays (time / tag / next /
   payload); free nodes are chained through [next], so steady-state
   push/pop recycles slots and allocates nothing on the OCaml heap. The
   current epoch is a window of [nbuckets] consecutive time units
   starting at [epoch] (aligned to the bucket count, a power of two): an
   event at time [u] with [epoch <= u < epoch + nbuckets] sits in the
   FIFO list of bucket [u land mask]. Bucket width is one time unit, so
   every node in a bucket shares one timestamp — pop advances the cursor
   to the next non-empty bucket and unlinks its head, O(1) amortized —
   and insertion order within a time is list order, which preserves the
   (time, insertion sequence) contract of the original binary heap
   without materializing sequence numbers.

   Events beyond the window wait in an insertion-ordered overflow list
   (invariant: every overflow time is at or past the window end, so the
   two structures never hold the same timestamp) and are promoted in
   bulk when the window rolls over them; a window that drains while
   overflow remains jumps the epoch straight to the earliest overflow
   time. A push may not precede the last popped event, so every push
   lands at or past the window's base and the cursor never rewinds. *)

type 'e t = {
  (* node arena, parallel arrays; [free] heads the freelist *)
  mutable ntime : int array;
  mutable ntag : int array;
  mutable nnext : int array;
  mutable npayload : Obj.t array;
  mutable free : int;
  (* window buckets: FIFO lists, one time unit per bucket *)
  mutable bhead : int array;
  mutable btail : int array;
  mutable mask : int; (* nbuckets - 1, nbuckets a power of two *)
  mutable epoch : int; (* window base, aligned: epoch land mask = 0 *)
  mutable cur : int; (* scan cursor: the last popped time; no node is earlier *)
  mutable win : int; (* nodes in the window buckets *)
  (* overflow list: times >= epoch + nbuckets, insertion order *)
  mutable ohead : int;
  mutable otail : int;
  mutable size : int;
  (* outputs of the last successful [pop_step] *)
  mutable o_time : int;
  mutable o_tag : int;
  mutable o_payload : Obj.t;
}

(* An immediate, so payload arrays are never flat float arrays and
   [Obj.repr]-boxed elements of any type can be stored in them. *)
let dummy = Obj.repr 0

let rec pow2 k n = if k >= n then k else pow2 (2 * k) n

let create ?(initial_capacity = 256) () =
  let cap = max 16 initial_capacity in
  let nb = pow2 64 (min cap (1 lsl 20)) in
  {
    ntime = Array.make cap 0;
    ntag = Array.make cap 0;
    nnext = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1);
    npayload = Array.make cap dummy;
    free = 0;
    bhead = Array.make nb (-1);
    btail = Array.make nb (-1);
    mask = nb - 1;
    epoch = 0;
    cur = 0;
    win = 0;
    ohead = -1;
    otail = -1;
    size = 0;
    o_time = 0;
    o_tag = 0;
    o_payload = dummy;
  }

let grow_arena t =
  let cap = Array.length t.ntime in
  let cap' = 2 * cap in
  let ntime = Array.make cap' 0
  and ntag = Array.make cap' 0
  and nnext = Array.make cap' (-1)
  and npayload = Array.make cap' dummy in
  Array.blit t.ntime 0 ntime 0 cap;
  Array.blit t.ntag 0 ntag 0 cap;
  Array.blit t.nnext 0 nnext 0 cap;
  Array.blit t.npayload 0 npayload 0 cap;
  for i = cap to cap' - 1 do
    nnext.(i) <- (if i = cap' - 1 then -1 else i + 1)
  done;
  t.ntime <- ntime;
  t.ntag <- ntag;
  t.nnext <- nnext;
  t.npayload <- npayload;
  t.free <- cap

let alloc t =
  if t.free < 0 then grow_arena t;
  let idx = t.free in
  t.free <- t.nnext.(idx);
  idx

let bucket_append t b idx =
  t.nnext.(idx) <- -1;
  if t.btail.(b) < 0 then begin
    t.bhead.(b) <- idx;
    t.btail.(b) <- idx
  end
  else begin
    t.nnext.(t.btail.(b)) <- idx;
    t.btail.(b) <- idx
  end

let overflow_append t idx =
  t.nnext.(idx) <- -1;
  if t.otail < 0 then begin
    t.ohead <- idx;
    t.otail <- idx
  end
  else begin
    t.nnext.(t.otail) <- idx;
    t.otail <- idx
  end

(* Move every overflow node that now falls inside the window into its
   bucket, keeping the leftovers in insertion order. Relative order of
   same-time nodes is preserved: equal times always share one bucket,
   and both lists are walked front to back. *)
let promote t =
  let limit = t.epoch + t.mask + 1 in
  let i = ref t.ohead in
  t.ohead <- -1;
  t.otail <- -1;
  while !i >= 0 do
    let next = t.nnext.(!i) in
    let u = t.ntime.(!i) in
    if u < limit then begin
      bucket_append t (u land t.mask) !i;
      t.win <- t.win + 1
    end
    else overflow_append t !i;
    i := next
  done

(* Empty the window buckets back into overflow (epoch-rebase helper).
   Distinct times never collide between the two lists, so appending
   whole bucket chains keeps every same-time run in insertion order. *)
let flush_window t =
  if t.win > 0 then
    for b = 0 to t.mask do
      let i = ref t.bhead.(b) in
      while !i >= 0 do
        let next = t.nnext.(!i) in
        overflow_append t !i;
        i := next
      done;
      t.bhead.(b) <- -1;
      t.btail.(b) <- -1
    done;
  t.win <- 0

(* Keep the standing population within a small factor of the bucket
   count, so the overflow list (rescanned at every rollover) stays
   short. Doubling rebases the window around the cursor. *)
let grow_buckets t =
  let nb' = 2 * (t.mask + 1) in
  flush_window t;
  t.bhead <- Array.make nb' (-1);
  t.btail <- Array.make nb' (-1);
  t.mask <- nb' - 1;
  t.epoch <- t.cur land lnot t.mask;
  promote t

let push_tagged t ~time ~tag payload =
  if time < t.o_time then invalid_arg "Event_queue.push: time before the last pop";
  if t.size >= 2 * (t.mask + 1) then grow_buckets t;
  let idx = alloc t in
  t.ntime.(idx) <- time;
  t.ntag.(idx) <- tag;
  t.npayload.(idx) <- Obj.repr payload;
  if time >= t.epoch + t.mask + 1 then overflow_append t idx
  else begin
    bucket_append t (time land t.mask) idx;
    t.win <- t.win + 1
  end;
  t.size <- t.size + 1

(* Position [cur] on the earliest non-empty bucket, rolling the epoch
   forward over overflow when the window has drained. The recursion runs
   at most twice: after a jump-and-promote the minimum overflow node is
   in the window by construction. *)
let rec ensure_head t =
  if t.size = 0 then false
  else if t.win > 0 then begin
    while t.bhead.(t.cur land t.mask) < 0 do
      t.cur <- t.cur + 1
    done;
    true
  end
  else begin
    let m = ref max_int in
    let i = ref t.ohead in
    while !i >= 0 do
      if t.ntime.(!i) < !m then m := t.ntime.(!i);
      i := t.nnext.(!i)
    done;
    t.epoch <- !m land lnot t.mask;
    t.cur <- !m;
    promote t;
    ensure_head t
  end

let pop_step t =
  if not (ensure_head t) then false
  else begin
    let b = t.cur land t.mask in
    let idx = t.bhead.(b) in
    let next = t.nnext.(idx) in
    t.bhead.(b) <- next;
    if next < 0 then t.btail.(b) <- -1;
    t.win <- t.win - 1;
    t.size <- t.size - 1;
    t.o_time <- t.ntime.(idx);
    t.o_tag <- t.ntag.(idx);
    t.o_payload <- t.npayload.(idx);
    t.npayload.(idx) <- dummy;
    t.nnext.(idx) <- t.free;
    t.free <- idx;
    true
  end

let out_time t = t.o_time
let out_tag t = t.o_tag
let out_payload (t : 'e t) : 'e = Obj.obj t.o_payload


(* The seed binary heap, kept verbatim as the differential-testing model
   and the "before" side of the E16 queue benchmark: one boxed
   {time; seq; event} record per push, O(log n) sift per operation. *)
module Reference = struct
  type 'e entry = { time : int; seq : int; event : 'e }

  type 'e t = {
    mutable heap : 'e entry array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create () = { heap = [||]; size = 0; next_seq = 0 }

  let precedes a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow t =
    let capacity = Array.length t.heap in
    if t.size = capacity then begin
      let fresh = Array.make (max 16 (2 * capacity)) t.heap.(0) in
      Array.blit t.heap 0 fresh 0 capacity;
      t.heap <- fresh
    end

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if precedes t.heap.(i) t.heap.(parent) then begin
        let tmp = t.heap.(i) in
        t.heap.(i) <- t.heap.(parent);
        t.heap.(parent) <- tmp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < t.size && precedes t.heap.(left) t.heap.(!smallest) then
      smallest := left;
    if right < t.size && precedes t.heap.(right) t.heap.(!smallest) then
      smallest := right;
    if !smallest <> i then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(!smallest);
      t.heap.(!smallest) <- tmp;
      sift_down t !smallest
    end

  let push t ~time event =
    if time < 0 then invalid_arg "Event_queue.push: negative time";
    let entry = { time; seq = t.next_seq; event } in
    t.next_seq <- t.next_seq + 1;
    if t.size = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry
    else grow t;
    t.heap.(t.size) <- entry;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.heap.(0) <- t.heap.(t.size);
        sift_down t 0
      end;
      Some (top.time, top.event)
    end

end
