(* Unit and property tests for ftss_util. *)

open Ftss_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_pid_all () =
  check_int "all 4 has 4 pids" 4 (List.length (Pid.all 4));
  check_int "all 0 is empty" 0 (List.length (Pid.all 0));
  check "validity" true (Pid.is_valid ~n:3 2);
  check "invalid above" false (Pid.is_valid ~n:3 3);
  check "invalid below" false (Pid.is_valid ~n:3 (-1));
  Alcotest.check_raises "negative size" (Invalid_argument "Pid.all: negative system size")
    (fun () -> ignore (Pid.all (-1)))

let test_pidset_helpers () =
  let s = Pidset.of_pred 5 (fun p -> p mod 2 = 0) in
  check_int "evens below 5" 3 (Pidset.cardinal s);
  check "full contains all" true (Pidset.equal (Pidset.full 3) (Pidset.of_list [ 0; 1; 2 ]));
  check "pp does not raise" true (String.length (Format.asprintf "%a" Pidset.pp s) > 0)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  check "equal streams from equal seeds" true (xs = ys)

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  check "split streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    check "int in bound" true (0 <= x && x < 7);
    let y = Rng.int_in rng (-3) 3 in
    check "int_in in range" true (-3 <= y && y <= 3)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: non-positive bound")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_sample () =
  let rng = Rng.create 11 in
  let xs = List.init 20 Fun.id in
  let s = Rng.sample rng 5 xs in
  check_int "sample size" 5 (List.length s);
  check "sample distinct" true (List.length (List.sort_uniq compare s) = 5);
  check "sample subset" true (List.for_all (fun x -> List.mem x xs) s);
  check "oversample is identity" true (Rng.sample rng 50 xs = xs)

let test_rng_pick () =
  let xs = [ 'a'; 'b'; 'c'; 'd' ] in
  let draws seed =
    let rng = Rng.create seed in
    List.init 200 (fun _ -> Rng.pick rng xs)
  in
  check "members only" true (List.for_all (fun x -> List.mem x xs) (draws 17));
  check "every element drawn" true (List.sort_uniq compare (draws 17) = xs);
  check "deterministic per seed" true (draws 17 = draws 17);
  check "singleton" true (Rng.pick (Rng.create 1) [ 'z' ] = 'z');
  check "empty list rejected" true
    (match Rng.pick (Rng.create 1) [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_rng_chance_extremes () =
  let rng = Rng.create 5 in
  check "p=0 never" false (Rng.chance rng 0.0);
  check "p=1 always" true (Rng.chance rng 1.0)

(* Stream pins: the first outputs of every draw for three seeds (one
   negative), recorded from the boxed-[int64] implementation the
   unboxed state replaced. Any change to a stream fails here before it
   can move a workload, schedule or simulator digest. *)
let rng_pins =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
        -537132696929009172L; 1961750202426094747L; 6038094601263162090L ],
      [ 883; 925; 419; 611; 686; 522 ],
      [ 61719671659; 664250767741; 301184733523; 180868030587; 389037038886;
        838007236794 ],
      [ -34; 7; 47; -47; -22; 47 ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
        0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2 ],
      [ true; false; true; false; true; false ],
      [ false; false; true; false; true; false ],
      [ -6411193824288604561L; -5511663747979980962L; 7141179953334974231L;
        -6338048412857661178L; -3912029315837398853L; 2697553276395720353L ] );
    ( 42,
      [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
        6349198060258255764L; 701532786141963250L; -2430762948046562554L ],
      [ 853; 72; 964; 941; 812; 265 ],
      [ 590758992805; 880142826560; 918129207252; 548742019301; 96788941052;
        543567132353 ],
      [ 6; -35; 36; 27; -40; 40 ],
      [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
        0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1 ],
      [ true; true; false; false; false; false ],
      [ false; true; true; false; true; false ],
      [ 6332618229526065668L; -816328817471504299L; 8971565426155258802L;
        1242533817266198696L; -5959852680200513735L; 1245346008178237623L ] );
    ( -7,
      [ 7790691224305936752L; 8829294814793142954L; -1715519743840680431L;
        2940488688193949890L; -8007545441867040463L; -3543770807805850555L ],
      [ 188; 738; 796; 472; 788; 265 ],
      [ 107657333340; 234868204714; 1067128275332; 792345359408; 1057294769740;
        886756954897 ],
      [ 38; -3; 32; -5; 37; -33 ],
      [ 0x1.b07861910e08ap-2; 0x1.ea1fd36af3c64p-2; 0x1.d0627fc3ae6ap-1;
        0x1.4675b70f6ed68p-3; 0x1.21bef7b15d6efp-1; 0x1.9da3fe73b6aa9p-1 ],
      [ false; false; true; false; true; true ],
      [ false; false; false; true; false; false ],
      [ 1533972906235141153L; 6759016261732985689L; 3304354537809254571L;
        -4660735234601323651L; 9001193676071847791L; -8657974942061788725L ] );
  ]

let test_rng_pinned_streams () =
  let i64 = Alcotest.testable (fun ppf x -> Format.fprintf ppf "%LdL" x) Int64.equal in
  let exact = Alcotest.testable (fun ppf x -> Format.fprintf ppf "%h" x) Float.equal in
  List.iter
    (fun (seed, bits, ints, wide, ranged, floats, bools, chances, child) ->
      let draws f = let r = Rng.create seed in List.init 6 (fun _ -> f r) in
      let label s = Printf.sprintf "%s (seed %d)" s seed in
      Alcotest.(check (list i64)) (label "bits64") bits (draws Rng.bits64);
      Alcotest.(check (list int)) (label "int 1000") ints (draws (fun r -> Rng.int r 1000));
      Alcotest.(check (list int)) (label "int 2^40") wide
        (draws (fun r -> Rng.int r (1 lsl 40)));
      Alcotest.(check (list int)) (label "int_in -50 50") ranged
        (draws (fun r -> Rng.int_in r (-50) 50));
      Alcotest.(check (list exact)) (label "float 1.0") floats
        (draws (fun r -> Rng.float r 1.0));
      Alcotest.(check (list bool)) (label "bool") bools (draws Rng.bool);
      Alcotest.(check (list bool)) (label "chance 0.3") chances
        (draws (fun r -> Rng.chance r 0.3));
      (* [split] consumes one output of the parent and seeds the child
         with it. *)
      let r = Rng.create seed in
      let c = Rng.split r in
      Alcotest.(check (list i64)) (label "split child") child
        (List.init 6 (fun _ -> Rng.bits64 c));
      Alcotest.(check (list i64)) (label "split parent") (List.tl bits)
        (List.init 5 (fun _ -> Rng.bits64 r)))
    rng_pins

(* The integer draws keep the splitmix64 state unboxed end to end. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 9 in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    sink := !sink + Rng.int r 1000 + Rng.int_in r (-5) 5;
    if Rng.bool r then incr sink;
    if Rng.chance r 0.25 then sink := !sink + i
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.)) "minor words for 10,000 of each draw" 0. words

let test_stats_basics () =
  let open Stats in
  Alcotest.(check (float 1e-9)) "mean" 2.0 (mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p50" 2.0 (percentile 50.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "p100 is max" 3.0 (percentile 100.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.max [ 3.0; 1.0; 2.0 ]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (mean []))

let test_table_renders () =
  let t = Table.create ~title:"demo" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_separator t;
  Table.add_row t [ "333" ];
  (* [Table.print] writes to the standard formatter: capture it. *)
  let buf = Buffer.create 256 in
  let saved = Format.pp_get_formatter_out_functions Format.std_formatter () in
  Format.pp_set_formatter_out_functions Format.std_formatter
    {
      out_string = Buffer.add_substring buf;
      out_flush = ignore;
      out_newline = (fun () -> Buffer.add_char buf '\n');
      out_spaces = (fun n -> Buffer.add_string buf (String.make n ' '));
      out_indent = (fun n -> Buffer.add_string buf (String.make n ' '));
    };
  Fun.protect
    ~finally:(fun () -> Format.pp_set_formatter_out_functions Format.std_formatter saved)
    (fun () -> Table.print t);
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  check "title first" true (List.hd lines = "demo");
  check "padded cells" true (List.mem "| 1   | 2  |" lines);
  check "short row padded" true (List.mem "| 333 |    |" lines)

(* --- Width-polymorphic Pidset: boundary behaviour across the one-word /
   multi-word representation switch, and differential testing against
   the reference [Set.Make (Pid)]. --- *)

module Pidref = Set.Make (Pid)

let test_pidset_boundaries () =
  check_int "one-word cap is 61" 61 Pidset.max_small;
  let top = Pidset.singleton Pidset.max_small in
  check "pid 61 representable" true (Pidset.mem 61 top);
  check_int "full at the word cap" 62 (Pidset.cardinal (Pidset.full 62));
  check_int "of_pred at the word cap" 31
    (Pidset.cardinal (Pidset.of_pred 62 (fun p -> p mod 2 = 0)));
  (* The historic one-word wall is gone: pid 62 and beyond now live in
     the multi-word representation. *)
  check "pid 62 representable" true (Pidset.mem 62 (Pidset.singleton 62));
  check_int "full beyond the word cap" 63 (Pidset.cardinal (Pidset.full 63));
  check_int "full at n=200" 200 (Pidset.cardinal (Pidset.full 200));
  check "of_list spanning the boundary" true
    (Pidset.equal (Pidset.of_list [ 0; 61; 62; 199 ])
       (Pidset.add 199 (Pidset.add 62 (Pidset.add 61 (Pidset.singleton 0)))));
  (* Out-of-range elements are rejected uniformly at the sanity bound. *)
  let oob p =
    Invalid_argument (Printf.sprintf "Pidset: pid %d outside 0..%d" p Pidset.max_pid)
  in
  Alcotest.check_raises "add beyond the sanity bound" (oob (Pidset.max_pid + 1))
    (fun () -> ignore (Pidset.add (Pidset.max_pid + 1) Pidset.empty));
  Alcotest.check_raises "singleton beyond the sanity bound" (oob (Pidset.max_pid + 1))
    (fun () -> ignore (Pidset.singleton (Pidset.max_pid + 1)));
  Alcotest.check_raises "negative pid" (oob (-1)) (fun () ->
      ignore (Pidset.add (-1) Pidset.empty));
  Alcotest.check_raises "of_pred beyond the sanity bound"
    (Invalid_argument
       (Printf.sprintf "Pidset.of_pred: n %d outside 0..%d" (Pidset.max_pid + 2)
          (Pidset.max_pid + 1)))
    (fun () -> ignore (Pidset.of_pred (Pidset.max_pid + 2) (fun _ -> true)));
  Alcotest.check_raises "of_pred negative"
    (Invalid_argument
       (Printf.sprintf "Pidset.of_pred: n -1 outside 0..%d" (Pidset.max_pid + 1)))
    (fun () -> ignore (Pidset.of_pred (-1) (fun _ -> true)));
  Alcotest.check_raises "full beyond the sanity bound"
    (Invalid_argument
       (Printf.sprintf "Pidset.full: n %d outside 0..%d" (Pidset.max_pid + 2)
          (Pidset.max_pid + 1)))
    (fun () -> ignore (Pidset.full (Pidset.max_pid + 2)));
  (* Queries never raise out of range — in either representation. *)
  check "mem out of range is false (one-word)" false
    (Pidset.mem 99 (Pidset.full 62));
  check "mem negative is false (one-word)" false
    (Pidset.mem (-5) (Pidset.full 62));
  check "mem out of range is false (multi-word)" false
    (Pidset.mem 4096 (Pidset.full 200));
  check "mem huge is false (multi-word)" false
    (Pidset.mem max_int (Pidset.full 200));
  check "mem negative is false (multi-word)" false
    (Pidset.mem (-5) (Pidset.full 200));
  check "remove out of range is identity (one-word)" true
    (Pidset.equal (Pidset.full 62) (Pidset.remove 99 (Pidset.full 62)));
  check "remove out of range is identity (multi-word)" true
    (Pidset.equal (Pidset.full 200) (Pidset.remove 4096 (Pidset.full 200)));
  (* Canonical form: a wide set shrunk back under the word cap is
     structurally equal to the set built narrow — the invariant that
     keeps [Stdlib.compare], hashing and trace fingerprints stable. *)
  let shrunk = Pidset.remove 199 (Pidset.add 199 (Pidset.of_list [ 1; 40; 61 ])) in
  check "shrinking re-canonicalizes" true
    (shrunk = Pidset.of_list [ 1; 40; 61 ]);
  check "diff re-canonicalizes" true
    (Pidset.diff (Pidset.full 200) (Pidset.of_pred 200 (fun p -> p >= 10))
    = Pidset.full 10);
  check "inter re-canonicalizes" true
    (Pidset.inter (Pidset.full 200) (Pidset.full 7) = Pidset.full 7)

(* One differential pass of every Pidset operation against the reference
   set implementation, over elements drawn from [0..n-1]. Instantiated
   at the widths bracketing the representation switch (61, 62, 63) and
   deep into multi-word territory (200). *)
let pidset_vs_reference ~n (xs, ys) =
  let clamp = List.filter (fun p -> p < n) in
  let xs = clamp xs and ys = clamp ys in
  let b = Pidset.of_list xs and b' = Pidset.of_list ys in
  let r = Pidref.of_list xs and r' = Pidref.of_list ys in
  let same s m = Pidset.to_list s = Pidref.elements m in
  let even p = p mod 2 = 0 in
  let top = n - 1 in
  same b r && same b' r'
  && same (Pidset.union b b') (Pidref.union r r')
  && same (Pidset.inter b b') (Pidref.inter r r')
  && same (Pidset.diff b b') (Pidref.diff r r')
  && same (Pidset.add 17 b) (Pidref.add 17 r)
  && same (Pidset.remove 17 b) (Pidref.remove 17 r)
  && same (Pidset.add top b) (Pidref.add top r)
  && same (Pidset.remove top b) (Pidref.remove top r)
  && same (Pidset.singleton top) (Pidref.singleton top)
  && Pidset.is_empty b = Pidref.is_empty r
  && Pidset.cardinal b = Pidref.cardinal r
  && Pidset.equal b b' = Pidref.equal r r'
  && Pidset.subset b b' = Pidref.subset r r'
  && List.for_all (fun p -> Pidset.mem p b = Pidref.mem p r) (Pid.all n)
  && Pidset.to_list b = Pidref.to_list r
  && (let acc = ref [] in
      Pidset.iter (fun p -> acc := p :: !acc) b;
      !acc = Pidref.fold (fun p acc -> p :: acc) r [])
  && Pidset.fold (fun p acc -> p :: acc) b []
     = Pidref.fold (fun p acc -> p :: acc) r []
  && Pidset.for_all even b = Pidref.for_all even r
  && Pidset.min_elt_opt b = Pidref.min_elt_opt r
  && Pidset.max_elt_opt b = Pidref.max_elt_opt r

let prop_pidset_matches_reference ~n =
  let pid_list = QCheck.(list_of_size Gen.(0 -- 40) (int_bound (n - 1))) in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "Pidset agrees with Set.Make (Pid) on every operation at n=%d" n)
    ~count:300
    QCheck.(pair pid_list pid_list)
    (pidset_vs_reference ~n)

(* Mixed-width differential pass: one operand below the representation
   switch, the other above, so every cross-representation branch of
   union/inter/diff/subset is exercised. *)
let prop_pidset_mixed_widths =
  let narrow = QCheck.(list_of_size Gen.(0 -- 20) (int_bound 61)) in
  let wide = QCheck.(list_of_size Gen.(0 -- 40) (int_bound 199)) in
  QCheck.Test.make
    ~name:"Pidset agrees with the reference across mixed representations"
    ~count:300
    QCheck.(pair narrow wide)
    (pidset_vs_reference ~n:200)

(* Pidmap keyed by pids on either side of the Pidset representation
   switch: the map itself is width-free, but the protocols pair it with
   Pidset universes, so pin the interop at each width. *)
let pidmap_at_width n =
  let m = List.fold_left (fun m p -> Pidmap.add p (p * p) m) Pidmap.empty (Pid.all n) in
  Pidmap.cardinal m = n
  && Pidmap.find (n - 1) m = (n - 1) * (n - 1)
  && Pidmap.find_opt n m = None
  && (let keys = Pidmap.fold (fun k _ acc -> k :: acc) m [] in
      List.rev keys = Pid.all n)
  && (let evens = Pidmap.filter (fun k _ -> k mod 2 = 0) m in
      Pidmap.cardinal evens = (n + 1) / 2)
  && (* round-trip through the set of keys *)
  Pidset.equal
    (Pidset.of_list (List.map fst (Pidmap.bindings m)))
    (Pidset.full n)

let test_pidmap_widths () =
  List.iter
    (fun n ->
      check (Printf.sprintf "pidmap interop at n=%d" n) true (pidmap_at_width n))
    [ 61; 62; 63; 200 ]

(* Property tests. *)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile lies within sample bounds" ~count:200
    QCheck.(pair (float_bound_inclusive 100.0) (list_of_size Gen.(1 -- 30) (float_bound_inclusive 50.0)))
    (fun (p, xs) ->
      let v = Stats.percentile p xs in
      v >= List.fold_left Float.min Float.infinity xs && v <= Stats.max xs)

let prop_sample_subset =
  QCheck.Test.make ~name:"Rng.sample yields a distinct subset" ~count:200
    QCheck.(pair small_nat (small_list small_int))
    (fun (k, xs) ->
      let xs = List.mapi (fun i x -> (i, x)) xs in
      let rng = Rng.create (k + List.length xs) in
      let s = Rng.sample rng k xs in
      List.length (List.sort_uniq compare s) = List.length s
      && List.for_all (fun x -> List.mem x xs) s)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "util",
      [
        tc "pid.all and validity" `Quick test_pid_all;
        tc "pidset helpers" `Quick test_pidset_helpers;
        tc "pidset bitset boundaries" `Quick test_pidset_boundaries;
        QCheck_alcotest.to_alcotest (prop_pidset_matches_reference ~n:61);
        QCheck_alcotest.to_alcotest (prop_pidset_matches_reference ~n:62);
        QCheck_alcotest.to_alcotest (prop_pidset_matches_reference ~n:63);
        QCheck_alcotest.to_alcotest (prop_pidset_matches_reference ~n:200);
        QCheck_alcotest.to_alcotest prop_pidset_mixed_widths;
        tc "pidmap widths across the representation switch" `Quick test_pidmap_widths;
        tc "rng determinism" `Quick test_rng_determinism;
        tc "rng split" `Quick test_rng_split;
        tc "rng bounds" `Quick test_rng_bounds;
        tc "rng sample" `Quick test_rng_sample;
        tc "rng pick" `Quick test_rng_pick;
        tc "rng chance extremes" `Quick test_rng_chance_extremes;
        tc "rng pinned streams" `Quick test_rng_pinned_streams;
        tc "rng draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        tc "stats basics" `Quick test_stats_basics;
        tc "table renders" `Quick test_table_renders;
        QCheck_alcotest.to_alcotest prop_percentile_bounded;
        QCheck_alcotest.to_alcotest prop_sample_subset;
      ] );
  ]
