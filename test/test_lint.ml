(* Fixture tests for the cpla-lint static analyzer: each rule gets at least
   one snippet proving it fires (with the exact rule-id and line) and one
   proving [@cpla.allow "rule-id"] silences it. *)

module Engine = Cpla_lint.Engine
module Finding = Cpla_lint.Finding
module Report = Cpla_lint.Report
module Rule = Cpla_lint.Rule

let hits ?(filename = "lib/fixture/snippet.ml") ?has_mli src =
  List.map
    (fun (f : Finding.t) -> (f.Finding.rule, f.Finding.line))
    (Engine.lint_string ?has_mli ~filename src)

let check ?filename ?has_mli name src expected =
  Alcotest.(check (list (pair string int))) name expected (hits ?filename ?has_mli src)

(* ---- top-mutable ---------------------------------------------------------- *)

let test_top_mutable_fires () =
  check "hashtbl" "let cache = Hashtbl.create 16\n" [ ("top-mutable", 1) ];
  check "ref" "let count = ref 0\n" [ ("top-mutable", 1) ];
  check "buffer under let-in" "let buf = let n = 64 in Buffer.create n\n"
    [ ("top-mutable", 1) ];
  check "mutable record literal"
    "type t = { mutable state : int }\nlet global = { state = 0 }\n"
    [ ("top-mutable", 2) ];
  check "nested module" "module M = struct\n  let q = Queue.create ()\nend\n"
    [ ("top-mutable", 2) ]

let test_top_mutable_clean () =
  check "atomic is fine" "let count = Atomic.make 0\n" [];
  check "function-local is fine" "let f () = Hashtbl.create 16\n" [];
  check "immutable record is fine" "type t = { state : int }\nlet global = { state = 0 }\n"
    [];
  check "lazy is fine" "let t = lazy (Buffer.create 64)\n" [];
  check ~filename:"bin/tool.ml" "bin is out of scope" "let cache = Hashtbl.create 16\n" []

let test_top_mutable_allow () =
  check "expression allow" "let cache = (Hashtbl.create 16) [@cpla.allow \"top-mutable\"]\n"
    [];
  check "binding allow" "let count = ref 0 [@cpla.allow \"top-mutable\"]\n" []

(* ---- ambient-random ------------------------------------------------------- *)

let test_ambient_random () =
  check "self_init" "let f () = Random.self_init ()\n" [ ("ambient-random", 1) ];
  check "stdlib-qualified" "let f () = Stdlib.Random.int 5\n" [ ("ambient-random", 1) ];
  check "allow" "let f () = (Random.int 5) [@cpla.allow \"ambient-random\"]\n" [];
  check "util rng is fine" "let f rng = Cpla_util.Rng.int rng 5\n" []

(* ---- wall-clock ----------------------------------------------------------- *)

let test_wall_clock () =
  check "gettimeofday" "let f () = Unix.gettimeofday ()\n" [ ("wall-clock", 1) ];
  check "sys time" "let f () = Sys.time ()\n" [ ("wall-clock", 1) ];
  check ~filename:"lib/util/timer.ml" "timer is the sanctioned site"
    "let read () = Unix.gettimeofday ()\n" [];
  check "allow" "let f () = (Sys.time ()) [@cpla.allow \"wall-clock\"]\n" []

(* ---- float-equality ------------------------------------------------------- *)

let test_float_equality () =
  check ~filename:"lib/numeric/snippet.ml" "literal operand" "let f x = x <> 0.0\n"
    [ ("float-equality", 1) ];
  check ~filename:"lib/timing/snippet.ml" "float fn operand"
    "let f a b = Float.abs a = sqrt b\n" [ ("float-equality", 1) ];
  check ~filename:"lib/sdp/snippet.ml" "physical equality" "let f x = x == 1.5\n"
    [ ("float-equality", 1) ];
  check ~filename:"lib/numeric/snippet.ml" "untyped compare not flagged"
    "let f a b = a = b\n" [];
  check ~filename:"lib/route/snippet.ml" "outside numeric scope" "let f x = x = 0.0\n" [];
  check ~filename:"lib/numeric/snippet.ml" "allow"
    "let f x = (x = 1.0) [@cpla.allow \"float-equality\"]\n" []

(* ---- obj-magic ------------------------------------------------------------ *)

let test_obj_magic () =
  check "fires" "let f x = Obj.magic x\n" [ ("obj-magic", 1) ];
  check "allow" "let f x = (Obj.magic x : int) [@cpla.allow \"obj-magic\"]\n" []

(* ---- exit-scope ----------------------------------------------------------- *)

let test_exit_scope () =
  check "lib fires" "let f () = exit 1\n" [ ("exit-scope", 1) ];
  check ~filename:"bench/main.ml" "bench fires" "let f () = exit 1\n"
    [ ("exit-scope", 1) ];
  check ~filename:"bin/cpla_cli.ml" "bin is fine" "let () = exit 0\n" [];
  check "allow" "let f () = (exit 1) [@cpla.allow \"exit-scope\"]\n" []

(* ---- stdout-print --------------------------------------------------------- *)

let test_stdout_print () =
  check "printf fires" "let f () = Printf.printf \"x\"\n" [ ("stdout-print", 1) ];
  check "print_endline fires" "let f () = print_endline \"x\"\n" [ ("stdout-print", 1) ];
  check ~filename:"lib/util/table.ml" "table is sanctioned"
    "let f () = print_string \"x\"\n" [];
  check ~filename:"lib/serve/report.ml" "report is sanctioned"
    "let f () = print_string \"x\"\n" [];
  check ~filename:"bench/main.ml" "outside lib/" "let f () = Printf.printf \"x\"\n" [];
  check "eprintf is fine" "let f () = Printf.eprintf \"x\"\n" [];
  check "sprintf is fine" "let f () = Printf.sprintf \"x\"\n" [];
  check "file-level allow"
    "[@@@cpla.allow \"stdout-print\"]\nlet f () = Printf.printf \"x\"\n" []

(* ---- catchall-async ------------------------------------------------------- *)

let test_catchall_async () =
  check "wildcard fires" "let f g = try g () with _ -> 0\n" [ ("catchall-async", 1) ];
  check "named without reraise fires" "let f g = try g () with e -> ignore e; 0\n"
    [ ("catchall-async", 1) ];
  check "match-exception fires" "let f g = match g () with x -> x | exception e -> ignore e; 0\n"
    [ ("catchall-async", 1) ];
  check "raise passes" "let f g = try g () with e -> raise e\n" [];
  check "reraise_if_async passes"
    "let f g = try g () with e -> Cpla_util.Exn.reraise_if_async e; 0\n" [];
  check "specific exception passes" "let f g = try g () with Not_found -> 0\n" [];
  check "allow on handler body" "let f g = try g () with e -> (ignore e; 0) [@cpla.allow \"catchall-async\"]\n"
    [];
  check "allow on whole try" "let f g = (try g () with _ -> 0) [@cpla.allow \"catchall-async\"]\n"
    []

(* ---- missing-mli ---------------------------------------------------------- *)

let test_missing_mli () =
  check ~has_mli:false "lib fires" "let x = 1\n" [ ("missing-mli", 0) ];
  check ~has_mli:true "with mli is fine" "let x = 1\n" [];
  check ~filename:"bin/tool.ml" ~has_mli:false "bin is exempt" "let x = 1\n" [];
  check ~has_mli:false "file-level allow" "[@@@cpla.allow \"missing-mli\"]\nlet x = 1\n" []

(* ---- unknown-allow -------------------------------------------------------- *)

let test_unknown_allow () =
  check "typo fires" "let f x = (x + 1) [@cpla.allow \"no-such-rule\"]\n"
    [ ("unknown-allow", 1) ];
  check "malformed payload fires" "let f x = (x + 1) [@cpla.allow]\n"
    [ ("unknown-allow", 1) ];
  check "self-suppression"
    "let f x = ((x + 1) [@cpla.allow \"no-such-rule\"]) [@cpla.allow \"unknown-allow\"]\n"
    [];
  check "multi-id payload silences several"
    "let f x = (exit (Obj.magic x)) [@cpla.allow \"obj-magic exit-scope\"]\n" []

(* ---- parse-error ---------------------------------------------------------- *)

let test_parse_error () =
  check "syntax error" "let let = 3\n" [ ("parse-error", 0) ]

(* ---- engine / report ------------------------------------------------------ *)

let test_ordering () =
  check "two findings sorted by line" "let f x = Obj.magic x\nlet g () = exit 1\n"
    [ ("obj-magic", 1); ("exit-scope", 2) ]

let test_registry () =
  Alcotest.(check bool) ">= 8 rules" true (List.length Rule.all >= 8);
  List.iter
    (fun (r : Rule.t) ->
      Alcotest.(check bool) ("known " ^ r.Rule.id) true (Rule.known r.Rule.id))
    Rule.all;
  Alcotest.(check bool) "unknown id" false (Rule.known "definitely-not-a-rule")

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_json_report () =
  let findings =
    Engine.lint_string ~filename:"lib/fixture/snippet.ml" "let f x = Obj.magic x\n"
  in
  let s = Format.asprintf "%a" (fun fmt -> Report.json fmt) findings in
  Alcotest.(check bool) "has rule" true (contains s "\"rule\":\"obj-magic\"");
  Alcotest.(check bool) "has file" true (contains s "\"file\":\"lib/fixture/snippet.ml\"");
  Alcotest.(check bool) "has count" true (contains s "\"count\":1");
  let escaped =
    Format.asprintf "%a"
      (fun fmt -> Report.json fmt)
      [ Finding.file_level ~file:"a\"b.ml" ~rule:"parse-error" ~msg:"x\ny" ]
  in
  Alcotest.(check bool) "escapes quote" true (contains escaped "a\\\"b.ml");
  Alcotest.(check bool) "escapes newline" true (contains escaped "x\\ny")

let test_human_report () =
  let findings =
    Engine.lint_string ~filename:"lib/fixture/snippet.ml" "let f x = Obj.magic x\n"
  in
  let s = Format.asprintf "%a" (fun fmt -> Report.human fmt) findings in
  Alcotest.(check bool) "diagnostic line" true
    (contains s "lib/fixture/snippet.ml:1: [obj-magic]");
  Alcotest.(check bool) "summary" true (contains s "cpla-lint: 1 finding")

(* An unreadable file (here: a dangling symlink, which readdir lists but
   stat/open fail on) must surface as a file-level [read-error] finding
   while the rest of the tree is still linted. *)
let test_read_error () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cpla-lint-read-error-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let good = Filename.concat dir "good.ml" in
      let oc = open_out good in
      output_string oc "let f x = Obj.magic x\n";
      close_out oc;
      Unix.symlink (Filename.concat dir "nowhere.ml") (Filename.concat dir "bad.ml");
      let findings = Engine.lint_paths ~context:[] [ dir ] in
      let rules = List.map (fun (f : Finding.t) -> f.Finding.rule) findings in
      Alcotest.(check bool) "read-error reported" true (List.mem "read-error" rules);
      Alcotest.(check bool) "good file still linted" true (List.mem "obj-magic" rules);
      match
        List.find_opt (fun (f : Finding.t) -> f.Finding.rule = "read-error") findings
      with
      | Some f ->
          Alcotest.(check bool) "finding names the symlink" true
            (contains f.Finding.file "bad.ml")
      | None -> Alcotest.fail "no read-error finding")

(* A partial lint sees the whole project: [lib/core] is linted, [lib/app]
   is context only.  Core's kernel writes a ref that app defines (a
   cross-library race), core's [helper] export is referenced only from app,
   and core carries one stale allow.  The partial run must report exactly
   what an all-linted run reports for core's files. *)
let test_partial_lint_sees_context () =
  let src ?(linted = true) src_path contents = { Engine.src_path; contents; linted } in
  let project ~app_linted =
    [
      src "lib/core/worker.ml"
        "let run xs =\n\
        \  Cpla_util.Pool.parallel_map ~workers:2 (fun x -> Cpla_app.Store.hits := x; x) xs\n\
         let helper x = (x + 1) [@cpla.allow \"wall-clock\"]\n";
      src "lib/core/worker.mli" "val run : int array -> int array\nval helper : int -> int\n";
      src ~linted:app_linted "lib/app/store.ml" "let hits = ref 0\n";
      src ~linted:app_linted "lib/app/store.mli" "val hits : int ref\n";
      src ~linted:app_linted "lib/app/report.ml"
        "let show xs = ignore (Cpla_core.Worker.run xs); Cpla_core.Worker.helper 1\n";
      src ~linted:app_linted "lib/app/report.mli" "val show : int array -> int\n";
    ]
  in
  let render fs = Format.asprintf "%a" Report.json fs in
  let in_core fs =
    List.filter (fun (f : Finding.t) -> String.starts_with ~prefix:"lib/core/" f.Finding.file) fs
  in
  let partial = Engine.lint_sources (project ~app_linted:false) in
  let full = Engine.lint_sources (project ~app_linted:true) in
  Alcotest.(check string) "partial = all-linted restricted to core" (render (in_core full))
    (render partial);
  Alcotest.(check (list string)) "rules" [ "domain-race"; "impure-kernel"; "stale-allow" ]
    (List.sort compare (List.map (fun (f : Finding.t) -> f.Finding.rule) partial));
  Alcotest.(check bool) "the all-linted run also reports app" true
    (List.length full > List.length partial);
  (* without the context library the race goes and both exports look unused *)
  let alone =
    Engine.lint_sources (List.filter (fun s -> s.Engine.linted) (project ~app_linted:false))
  in
  Alcotest.(check (list string)) "no context" [ "stale-allow"; "unused-export"; "unused-export" ]
    (List.sort compare (List.map (fun (f : Finding.t) -> f.Finding.rule) alone))

(* A creation-site domain-race allow in a linted unit whose only race is
   captured in a context unit: the whole-tree lint credits it, so the
   partial lint must not report it as stale. *)
let test_partial_lint_credits_context_race () =
  let src ?(linted = true) src_path contents = { Engine.src_path; contents; linted } in
  let project ~app_linted =
    [
      src "lib/core/store.ml" "let[@cpla.allow \"domain-race top-mutable\"] hits = ref 0\n";
      src "lib/core/store.mli" "val hits : int ref\n";
      src ~linted:app_linted "lib/app/worker.ml"
        "let run xs =\n\
        \  Cpla_util.Pool.parallel_map ~workers:2 (fun x -> Cpla_core.Store.hits := x; x) xs\n";
      src ~linted:app_linted "lib/app/worker.mli" "val run : int array -> int array\n";
    ]
  in
  let render fs = Format.asprintf "%a" Report.json fs in
  let in_core fs =
    List.filter (fun (f : Finding.t) -> String.starts_with ~prefix:"lib/core/" f.Finding.file) fs
  in
  let partial = Engine.lint_sources (project ~app_linted:false) in
  let full = Engine.lint_sources (project ~app_linted:true) in
  Alcotest.(check (list string)) "no stale-allow" []
    (List.map (fun (f : Finding.t) -> f.Finding.rule) partial);
  Alcotest.(check string) "partial = all-linted restricted to core" (render (in_core full))
    (render partial)

let suite =
  [
    Alcotest.test_case "top-mutable fires" `Quick test_top_mutable_fires;
    Alcotest.test_case "top-mutable clean" `Quick test_top_mutable_clean;
    Alcotest.test_case "top-mutable allow" `Quick test_top_mutable_allow;
    Alcotest.test_case "ambient-random" `Quick test_ambient_random;
    Alcotest.test_case "wall-clock" `Quick test_wall_clock;
    Alcotest.test_case "float-equality" `Quick test_float_equality;
    Alcotest.test_case "obj-magic" `Quick test_obj_magic;
    Alcotest.test_case "exit-scope" `Quick test_exit_scope;
    Alcotest.test_case "stdout-print" `Quick test_stdout_print;
    Alcotest.test_case "catchall-async" `Quick test_catchall_async;
    Alcotest.test_case "missing-mli" `Quick test_missing_mli;
    Alcotest.test_case "unknown-allow" `Quick test_unknown_allow;
    Alcotest.test_case "parse-error" `Quick test_parse_error;
    Alcotest.test_case "finding ordering" `Quick test_ordering;
    Alcotest.test_case "rule registry" `Quick test_registry;
    Alcotest.test_case "json report" `Quick test_json_report;
    Alcotest.test_case "human report" `Quick test_human_report;
    Alcotest.test_case "read-error keeps linting" `Quick test_read_error;
    Alcotest.test_case "partial lint sees the whole project" `Quick test_partial_lint_sees_context;
    Alcotest.test_case "partial lint credits a context race" `Quick
      test_partial_lint_credits_context_race;
  ]
