(** Tests for the parallel OCaml-domains execution backend.

    The central property is the equivalence oracle: for every
    benchmark and every domain count, [Exec.run] must produce the same
    canonical digest ({!Bamboo.Canon}) as the sequential deterministic
    runtime on the same layout.  On top of that: a randomized-schedule
    stress test (chaos jitter, many seeds) and a model test of the
    ordered Atomic-CAS try-lock protocol. *)

module Exec = Bamboo.Exec
module Canon = Bamboo.Canon
module Runtime = Bamboo.Runtime
module Machine = Bamboo.Machine
module Effects = Bamboo.Effects
module Registry = Bamboo_benchmarks.Registry
module Bench_def = Bamboo_benchmarks.Bench_def

(* ------------------------------------------------------------------ *)
(* Digest equivalence: exec vs the sequential runtime *)

let reference_digest prog layout ~args ~lock_groups =
  let r = Runtime.run ~args ~lock_groups prog layout in
  Canon.digest prog ~output:r.r_output ~objects:r.r_objects

(** Sequential runtime and parallel backend agree on the canonical
    digest for [bench] on an 8-core spread layout, for 1/2/4/8
    domains. *)
let test_equivalence (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  let expected = reference_digest prog layout ~args ~lock_groups:an.lock_groups in
  List.iter
    (fun domains ->
      let r = Exec.run ~args ~domains ~seed:domains ~lock_groups:an.lock_groups prog layout in
      Helpers.check_string (Printf.sprintf "%s digest @ %d domains" b.b_name domains) expected
        r.x_digest;
      Helpers.check_bool
        (Printf.sprintf "%s executed work @ %d domains" b.b_name domains)
        true (r.x_invocations > 0))
    [ 1; 2; 4; 8 ]

let equivalence_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case b.b_name `Quick (test_equivalence b))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Work-stealing schedule: same oracle, steal placement *)

(** The equivalence oracle again, under [--schedule steal]: digests
    must stay bit-identical to the sequential runtime even when idle
    domains move invocations off their home cores.  [Exec.run] derives
    the BAM011 steal-safety contract itself here — this also covers
    the self-computation path the CLI relies on. *)
let test_steal_equivalence (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  let expected = reference_digest prog layout ~args ~lock_groups:an.lock_groups in
  List.iter
    (fun domains ->
      let r =
        Exec.run ~args ~domains ~seed:domains ~schedule:Exec.Steal
          ~lock_groups:an.lock_groups prog layout
      in
      Helpers.check_string
        (Printf.sprintf "%s steal digest @ %d domains" b.b_name domains)
        expected r.x_digest;
      Helpers.check_bool
        (Printf.sprintf "%s steal ledger consistent @ %d domains" b.b_name domains)
        true
        (r.x_steals <= r.x_steal_attempts && r.x_steals >= 0
        && r.x_stolen_invocations <= r.x_invocations))
    [ 1; 2; 4; 8 ]

let steal_equivalence_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case b.b_name `Quick (test_steal_equivalence b))
    Registry.all

(** Every benchmark's every task is steal-safe under the BAM011
    contract: the disjointness analysis arbitrates all their
    interference with shared locks, so the whole suite actually
    exercises stealing (nothing is pinned). *)
let test_steal_contract_benchmarks () =
  List.iter
    (fun (b : Bench_def.t) ->
      let prog = Bamboo.compile b.b_source in
      let an = Bamboo.analyse prog in
      let eff = Effects.analyse prog an.astgs in
      let sc = Effects.steal_contract eff ~lock_groups:an.lock_groups prog in
      Array.iteri
        (fun t safe ->
          if not safe then
            Alcotest.failf "%s: task %s not steal-safe" b.b_name
              prog.Bamboo.Ir.tasks.(t).t_name)
        sc.Effects.st_safe)
    Registry.all

(** Sanitizer stays clean under stealing: moving an invocation to a
    thief core must not change which locks protect which accesses
    (the dynamic lockset is carried by the invocation's lock set, not
    the executing core). *)
let test_steal_sanitize_clean (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let eff = Effects.analyse prog an.astgs in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  List.iter
    (fun domains ->
      let r =
        Exec.run ~args ~domains ~seed:domains ~schedule:Exec.Steal ~sanitize:eff
          ~lock_groups:an.lock_groups prog layout
      in
      if r.x_violations <> [] then
        Alcotest.failf "%s steal @ %d domains: %s" b.b_name domains
          (String.concat "; " r.x_violations))
    [ 2; 8 ]

let steal_sanitize_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case ("sanitize " ^ b.b_name) `Quick (test_steal_sanitize_clean b))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Randomized-schedule stress test *)

(** 500 parallel runs of the counter program under chaos jitter (each
    with a different seed, so a different schedule) all produce the
    sequential digest.  This is the no-data-race check we can run
    without TSan: any unlocked state mutation or stale-snapshot
    execution shows up as a digest mismatch under some schedule. *)
let test_stress_chaos () =
  let prog = Helpers.compile Helpers.counter_src in
  let args = [ "6" ] in
  let machine = Machine.with_cores Machine.tilepro64 4 in
  let layout = Exec.spread_layout prog machine in
  let lock_groups = (Bamboo.analyse prog).lock_groups in
  let expected = reference_digest prog layout ~args ~lock_groups in
  for seed = 1 to 500 do
    let r = Exec.run ~args ~domains:4 ~seed ~chaos:0.3 ~lock_groups prog layout in
    if not (String.equal r.x_digest expected) then
      Alcotest.failf "digest diverged at seed %d" seed
  done

(** The same 500-seed chaos stress under steal placement: the jitter
    idles cores at random moments, so steal timing varies per seed —
    every schedule must still land on the sequential digest.  Each
    run derives the BAM011 contract itself (a fraction of a
    millisecond on this program). *)
let test_steal_stress_chaos () =
  let prog = Helpers.compile Helpers.counter_src in
  let args = [ "6" ] in
  let machine = Machine.with_cores Machine.tilepro64 4 in
  let layout = Exec.spread_layout prog machine in
  let lock_groups = (Bamboo.analyse prog).lock_groups in
  let expected = reference_digest prog layout ~args ~lock_groups in
  for seed = 1 to 500 do
    let r =
      Exec.run ~args ~domains:4 ~seed ~chaos:0.3 ~schedule:Exec.Steal ~lock_groups prog layout
    in
    if not (String.equal r.x_digest expected) then
      Alcotest.failf "steal digest diverged at seed %d" seed
  done

(* ------------------------------------------------------------------ *)
(* Ordered try-lock protocol model test *)

(** Hammer [Exec.try_lock_all] from 4 domains over overlapping,
    globally ordered cell subsets.  Mutual exclusion is checked with a
    plain (non-atomic) counter per cell — only mutated while holding
    that cell — and the run terminating at all checks the protocol is
    deadlock-free (try-lock has no hold-and-wait). *)
let test_trylock_model () =
  let ncells = 6 in
  let cells = Array.init ncells (fun _ -> Atomic.make (-1)) in
  let owners = Array.make ncells (-1) in
  (* plain, deliberately *)
  let violations = Atomic.make 0 in
  let acquired = Atomic.make 0 in
  let worker did =
    let rng = Bamboo.Prng.create ~seed:(did + 1) in
    let got = ref 0 in
    while !got < 200 do
      (* a sorted random subset of the cells *)
      let subset =
        List.filter (fun _ -> Bamboo.Prng.bool rng) (List.init ncells Fun.id)
      in
      let subset = if subset = [] then [ Bamboo.Prng.int rng ncells ] else subset in
      match Exec.try_lock_all did (List.map (fun i -> cells.(i)) subset) with
      | None -> Domain.cpu_relax ()
      | Some held ->
          List.iter
            (fun i ->
              if owners.(i) <> -1 then Atomic.incr violations;
              owners.(i) <- did)
            subset;
          List.iter (fun i -> owners.(i) <- -1) subset;
          Exec.release_all held;
          incr got;
          Atomic.incr acquired
    done
  in
  let ds = Array.init 3 (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
  worker 0;
  Array.iter Domain.join ds;
  Helpers.check_int "no mutual-exclusion violations" 0 (Atomic.get violations);
  Helpers.check_int "all rounds eventually acquired" 800 (Atomic.get acquired);
  Array.iter
    (fun c -> Helpers.check_int "all cells released" (-1) (Atomic.get c))
    cells

(* ------------------------------------------------------------------ *)
(* Canonical digest unit behaviour *)

let test_canon_insensitive () =
  let prog = Helpers.compile Helpers.counter_src in
  (* line order must not matter, content must *)
  let d1 = Canon.digest prog ~output:"a\nb\n" ~objects:[] in
  let d2 = Canon.digest prog ~output:"b\na\n" ~objects:[] in
  let d3 = Canon.digest prog ~output:"a\nc\n" ~objects:[] in
  Helpers.check_string "order-insensitive" d1 d2;
  Helpers.check_bool "content-sensitive" true (d1 <> d3)

let test_reference_escape_hatch () =
  let prog = Helpers.compile Helpers.counter_src in
  let layout = Exec.spread_layout prog Machine.single in
  let r = Exec.reference_run ~args:[ "3" ] prog layout in
  Helpers.check_int "reference path marks x_domains = 0" 0 r.x_domains;
  let rp = Exec.run ~args:[ "3" ] ~domains:2 prog layout in
  Helpers.check_string "reference and parallel digests agree" r.x_digest rp.x_digest

(** The oracles are called explicitly, and [BAMBOO_SIM_REFERENCE] /
    [BAMBOO_EXEC_REFERENCE] switch nothing on process-wide.  In-process:
    [Schedsim.simulate] stays on the dense path and [Exec.run] stays
    parallel.  Through the CLI, where such a switch would have been
    read at start-up: [bamboo exec] still runs on domains and prints
    the oracle's digest, and only [--exec-reference] reaches the
    sequential runtime. *)
let test_removed_switches_inert () =
  let vars = [ ("BAMBOO_SIM_REFERENCE", "1"); ("BAMBOO_EXEC_REFERENCE", "1") ] in
  List.iter (fun (k, v) -> Unix.putenv k v) vars;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (k, _) -> Unix.putenv k "") vars)
    (fun () ->
      let b = Registry.find "Fractal" in
      let args = Helpers.small_args b.b_name in
      let prog = Bamboo.compile b.b_source in
      let prof = Bamboo.profile ~args prog in
      let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
      let dense = Bamboo.Schedsim.simulate_prepared (Bamboo.Schedsim.prepare prog prof) layout in
      let sim = Bamboo.Schedsim.simulate prog prof layout in
      Helpers.check_int "simulate: cycles" dense.s_total_cycles sim.s_total_cycles;
      Helpers.check_int "simulate: events" dense.s_sim_events sim.s_sim_events;
      let r = Exec.run ~args ~domains:2 prog layout in
      Helpers.check_bool "Exec.run stays parallel" true (r.x_domains > 0));
  let exec extra =
    Helpers.run_cli ~extra_env:(List.map (fun (k, v) -> k ^ "=" ^ v) vars)
      ([ "exec"; "bench:KeywordCount"; "--cores"; "4"; "--domains"; "2" ] @ extra
     @ [ "--"; "8" ])
  in
  let runs_on extra domains =
    let code, out, _ = exec extra in
    Helpers.check_int "exec exit status" 0 code;
    Helpers.check_bool
      (Printf.sprintf "%s ran on %d domains" (String.concat " " ("exec" :: extra)) domains)
      true
      (Str_find.contains out (Printf.sprintf " wall on %d domains " domains))
  in
  runs_on [] 2;
  runs_on [ "--exec-reference" ] 0;
  let _, parallel, _ = exec [ "--digest-only" ] in
  let _, oracle, _ = exec [ "--exec-reference"; "--digest-only" ] in
  Helpers.check_string "parallel digest = sequential oracle digest" oracle parallel

(* ------------------------------------------------------------------ *)
(* Dynamic lockset sanitizer *)

(** Every benchmark runs clean under the sanitizer at 1/2/4/8 domains:
    the static effect analysis predicted every dynamic access, and no
    object's shadow lockset ever emptied with a write.  This is the
    soundness cross-check of the effects analysis — an unpredicted
    access here means the static pass under-approximated. *)
let test_sanitize_clean (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let eff = Bamboo.Effects.analyse prog an.astgs in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  List.iter
    (fun domains ->
      let r =
        Exec.run ~args ~domains ~seed:domains ~sanitize:eff ~lock_groups:an.lock_groups prog
          layout
      in
      if r.x_violations <> [] then
        Alcotest.failf "%s @ %d domains: %s" b.b_name domains
          (String.concat "; " r.x_violations))
    [ 1; 2; 4; 8 ]

let sanitize_cases =
  List.map
    (fun (b : Bench_def.t) -> Alcotest.test_case b.b_name `Quick (test_sanitize_clean b))
    Registry.all

(* Creator-wired sharing: two handles to one Data object, written by
   two single-parameter tasks holding only their own locks.  The
   shadow lockset for the shared object empties on the second writer,
   so the violation is detected deterministically — even at 1 domain,
   where no physical race can happen. *)
let racy_src =
  {|
  class Data {
    int v;
    Data() { this.v = 0; }
  }
  class H { flag go; Data child; }
  class K { flag go; Data child; }
  task startup(StartupObject s in initialstate) {
    Data d = new Data();
    H h = new H(){go := true};
    h.child = d;
    K k = new K(){go := true};
    k.child = d;
    taskexit(s: initialstate := false);
  }
  task th(H h in go) {
    h.child.v = h.child.v + 1;
    taskexit(h: go := false);
  }
  task tk(K k in go) {
    k.child.v = k.child.v + 2;
    taskexit(k: go := false);
  }
  |}

let test_sanitize_detects_race () =
  let prog = Helpers.compile racy_src in
  let an = Bamboo.analyse prog in
  let eff = Bamboo.Effects.analyse prog an.astgs in
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  List.iter
    (fun domains ->
      let r = Exec.run ~domains ~sanitize:eff ~lock_groups:an.lock_groups prog layout in
      match r.x_violations with
      | [ v ] ->
          Helpers.check_bool
            (Printf.sprintf "lockset violation named @ %d domains" domains)
            true
            (String.length v >= 17 && String.sub v 0 17 = "lockset violation");
          Helpers.check_bool "names the field" true
            (Str_find.contains v "Data.v")
      | vs ->
          Alcotest.failf "expected one violation @ %d domains, got %d" domains
            (List.length vs))
    [ 1; 4 ]

(** The steal-safety contract refuses to expose tasks with unprotected
    conflicts: in [racy_src] the creator-wired writers [th]/[tk] are
    pinned to their home cores while the conflict-free [startup] stays
    stealable — and the program still runs to the sequential digest
    under steal placement, because pinned tasks never enter a deque. *)
let test_steal_contract_gates_racy () =
  let prog = Helpers.compile racy_src in
  let an = Bamboo.analyse prog in
  let eff = Effects.analyse prog an.astgs in
  let sc = Effects.steal_contract eff ~lock_groups:an.lock_groups prog in
  let id name =
    match Bamboo.Ir.find_task prog name with Some t -> t.t_id | None -> -1
  in
  Helpers.check_bool "startup steal-safe" true sc.Effects.st_safe.(id "startup");
  Helpers.check_bool "th pinned" false sc.Effects.st_safe.(id "th");
  Helpers.check_bool "tk pinned" false sc.Effects.st_safe.(id "tk");
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  let expected = reference_digest prog layout ~args:[] ~lock_groups:an.lock_groups in
  List.iter
    (fun domains ->
      let r =
        Exec.run ~domains ~seed:domains ~schedule:Exec.Steal ~lock_groups:an.lock_groups
          prog layout
      in
      Helpers.check_string
        (Printf.sprintf "racy digest under steal @ %d domains" domains)
        expected r.x_digest)
    [ 1; 2; 4 ]

(* White-box unsoundness injection: blank one task's predicted access
   set and the sanitizer must flag its very real accesses as
   unpredicted. *)
let test_sanitize_unpredicted () =
  let prog = Helpers.compile Helpers.counter_src in
  let an = Bamboo.analyse prog in
  let eff = Bamboo.Effects.analyse prog an.astgs in
  let collect =
    match Bamboo.Ir.find_task prog "collect" with Some t -> t.t_id | None -> -1
  in
  eff.per_task.(collect) <-
    { (eff.per_task.(collect)) with ef_accesses = [] };
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  let r =
    Exec.run ~args:[ "4" ] ~domains:2 ~sanitize:eff ~lock_groups:an.lock_groups prog layout
  in
  Helpers.check_bool "unpredicted accesses reported" true
    (List.exists (fun v -> Str_find.contains v "unpredicted") r.x_violations)

(* The monitor observes only: cycle accounting and digests are
   bit-identical with the sanitizer on and off. *)
let test_sanitize_transparent () =
  let prog = Helpers.compile Helpers.counter_src in
  let an = Bamboo.analyse prog in
  let eff = Bamboo.Effects.analyse prog an.astgs in
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  let plain = Exec.run ~args:[ "5" ] ~domains:1 ~lock_groups:an.lock_groups prog layout in
  let san =
    Exec.run ~args:[ "5" ] ~domains:1 ~sanitize:eff ~lock_groups:an.lock_groups prog layout
  in
  Helpers.check_string "same digest" plain.x_digest san.x_digest;
  Helpers.check_int "same cycles" plain.x_cycles san.x_cycles;
  Helpers.check_int "no violations" 0 (List.length san.x_violations)

(* ------------------------------------------------------------------ *)
(* Failure propagation *)

(* Every [bad] invocation indexes past a two-element array with the same
   out-of-range index, so the first failure's message does not depend
   on which invocation fails first. *)
let failing_src =
  {|
  class It {
    flag go;
    int v;
    It(int v) { this.v = v; }
  }
  task startup(StartupObject s in initialstate) {
    int n = Integer.parseInt(s.args[0]);
    for (int i = 0; i < 4; i = i + 1) {
      It it = new It(n){go := true};
    }
    taskexit(s: initialstate := false);
  }
  task bad(It it in go) {
    int[] a = new int[2];
    a[it.v] = 1;
    taskexit(it: go := false);
  }
  |}

(** [f ()]'s outcome, run on its own domain; fails the test (leaving
    that domain behind) if there is none within [seconds], so a lost
    failure shows up as a failing test rather than a hung suite. *)
let within seconds f =
  let outcome = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set outcome (Some (try Ok (f ()) with e -> Error e))) in
  let t0 = Bamboo.Clock.now () in
  let rec wait () =
    match Atomic.get outcome with
    | Some r ->
        Domain.join d;
        r
    | None ->
        if Bamboo.Clock.elapsed t0 > seconds then
          Alcotest.failf "no outcome within %.0f s" seconds;
        Unix.sleepf 0.001;
        wait ()
  in
  wait ()

let runtime_error_of what = function
  | Error (Bamboo.Value.Runtime_error msg) -> msg
  | Error e -> Alcotest.failf "%s raised %s, not a runtime error" what (Printexc.to_string e)
  | Ok _ -> Alcotest.failf "%s returned normally" what

(** A task body that fails at run time fails the whole batch run, on
    every domain count and schedule, with the sequential runtime's
    message — the crashing domain records the error, the others drain
    out, and [Exec.run] re-raises it. *)
let test_runtime_error_propagates () =
  let prog = Helpers.compile failing_src in
  let lock_groups = (Bamboo.analyse prog).lock_groups in
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  let args = [ "5" ] in
  let expected =
    runtime_error_of "reference_run"
      (within 30.0 (fun () -> Exec.reference_run ~args ~lock_groups prog layout))
  in
  Helpers.check_bool "reference names the index" true (Str_find.contains expected "5");
  List.iter
    (fun (domains, schedule, name) ->
      let got =
        runtime_error_of name
          (within 30.0 (fun () -> Exec.run ~args ~domains ~schedule ~lock_groups prog layout))
      in
      Helpers.check_string (name ^ ": same message as the sequential runtime") expected got)
    [
      (1, Exec.Static, "1 domain static");
      (2, Exec.Static, "2 domains static");
      (1, Exec.Steal, "1 domain steal");
      (2, Exec.Steal, "2 domains steal");
    ]

(** On a session, a failing injection marks the session crashed (the
    generator's stop signal) and [close_session] re-raises the error. *)
let test_session_crash_propagates () =
  let prog = Helpers.compile failing_src in
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  let tracker =
    { Exec.tk_pending = [| Atomic.make 0 |]; tk_done = (fun ~req:_ ~core:_ -> ()) }
  in
  let outcome =
    within 30.0 (fun () ->
        let ses = Exec.open_session ~domains:2 ~tracker prog layout in
        Exec.inject ses ~req:0 [ "5" ];
        while Exec.session_crashed ses = None do
          Unix.sleepf 0.001
        done;
        (match Exec.session_crashed ses with
        | Some (Bamboo.Value.Runtime_error _) -> ()
        | _ -> Alcotest.fail "session_crashed holds something other than the runtime error");
        ignore (Exec.close_session ses))
  in
  ignore (runtime_error_of "close_session" outcome : string)

(** The CLI's exit contract: a program runtime error is exit 1 with a
    one-line [bamboo: runtime error: MSG] on stderr, under every
    executing subcommand; [--exec-reference] with [--sanitize] is a
    usage error (124). *)
let test_cli_exit_contract () =
  let file = Filename.temp_file "failing" ".bam" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc -> output_string oc failing_src);
      let prog = Helpers.compile failing_src in
      let layout = Exec.spread_layout prog Machine.single in
      let msg =
        runtime_error_of "reference_run"
          (try Ok (Exec.reference_run ~args:[ "5" ] prog layout) with e -> Error e)
      in
      List.iter
        (fun sub ->
          let code, _, err = Helpers.run_cli (sub @ [ file; "--"; "5" ]) in
          let name = String.concat " " sub in
          Helpers.check_int (name ^ ": exit status") 1 code;
          Helpers.check_string (name ^ ": stderr") ("bamboo: runtime error: " ^ msg ^ "\n") err)
        [
          [ "run"; "--cores"; "4" ];
          [ "profile" ];
          [ "exec"; "--cores"; "4"; "--domains"; "1" ];
          [ "exec"; "--cores"; "4"; "--domains"; "2" ];
        ];
      let code, _, err =
        Helpers.run_cli
          [ "exec"; "--exec-reference"; "--sanitize"; "bench:KeywordCount"; "--"; "8" ]
      in
      Helpers.check_int "--exec-reference --sanitize: exit status" 124 code;
      Helpers.check_bool "--exec-reference --sanitize: names the conflict" true
        (Str_find.contains err "--exec-reference cannot be combined with --sanitize"))

let tests =
  [
    ("exec.equivalence", equivalence_cases);
    ( "exec.steal",
      steal_equivalence_cases @ steal_sanitize_cases
      @ [
          Alcotest.test_case "benchmarks fully steal-safe" `Quick
            test_steal_contract_benchmarks;
          Alcotest.test_case "contract pins racy writers" `Quick
            test_steal_contract_gates_racy;
        ] );
    ("exec.sanitize", sanitize_cases
      @ [
          Alcotest.test_case "detects creator-wired race" `Quick test_sanitize_detects_race;
          Alcotest.test_case "flags unpredicted accesses" `Quick test_sanitize_unpredicted;
          Alcotest.test_case "observer transparency" `Quick test_sanitize_transparent;
        ]);
    ( "exec.protocol",
      [
        Alcotest.test_case "ordered try-lock model" `Quick test_trylock_model;
        Alcotest.test_case "canonical digest" `Quick test_canon_insensitive;
        Alcotest.test_case "reference escape hatch" `Quick test_reference_escape_hatch;
        Alcotest.test_case "removed switches inert" `Quick test_removed_switches_inert;
      ] );
    ( "exec.failure",
      [
        Alcotest.test_case "runtime error propagates" `Quick test_runtime_error_propagates;
        Alcotest.test_case "session crash propagates" `Quick test_session_crash_propagates;
        Alcotest.test_case "cli exit contract" `Quick test_cli_exit_contract;
      ] );
    ( "exec.stress",
      [
        Alcotest.test_case "500 chaos schedules" `Slow test_stress_chaos;
        Alcotest.test_case "500 chaos schedules (steal)" `Slow test_steal_stress_chaos;
      ] );
  ]
