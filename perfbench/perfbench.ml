(* Steady end-to-end and per-layer benchmark of the Best-Path query.

   One process runs one workload over many seeded topologies: set-up,
   convergence to the initial fixpoint, for some topologies a seeded
   schedule that flaps every link once followed by re-convergence, and
   (for the forensics workload) provenance-log recovery plus traceback
   queries.  Every call into a layer is timed from here, outside the
   program, and every run checks its outputs: each bestPathCost against
   Dijkstra over the link set, no forged or unverifiable messages,
   non-partial tracebacks, and offline provenance identical to live
   provenance.  See README.md for the metrics.

   Usage:
     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --tmp DIR [--trace-out FILE]

   [--trace 0] prints the end-to-end metrics, [--trace 1] the per-layer
   ones; the last line of standard output is the JSON result. *)

open Core

(* --- workloads ---------------------------------------------------------- *)

type workload = {
  w_name : string;
  w_cfg : Config.t;
  w_n : int; (* nodes per topology *)
  w_topologies : int; (* topologies converged per run, drawn from the seed *)
  w_churned : int; (* of those, how many then flap every link once *)
  w_forensics : bool;
      (* write provenance through to an on-disk log, and trace every
         churned topology live and, after recovering the log, offline *)
}

(* Work is spread over many small seeded topologies: one topology's
   work varies by 10-20% with its shape, and a sum over many of them
   repeats from seed to seed where a single large topology does not.
   The counts are for a 40 s budget on a 2-core host; [scaled] sizes a
   run to its --seconds, so the input set never depends on host speed. *)
let workloads =
  [ { w_name = "bestpath_ndlog";
      w_cfg = Config.ndlog;
      w_n = 25;
      w_topologies = 16;
      w_churned = 8;
      w_forensics = false };
    { w_name = "churn_forensics";
      w_cfg = Config.sendlog_prov;
      w_n = 12;
      w_topologies = 14;
      w_churned = 14;
      w_forensics = true } ]

let scaled (w : workload) ~seconds =
  let scale k = max 1 (int_of_float (Float.round (float_of_int k *. seconds /. 40.0))) in
  { w with w_topologies = scale w.w_topologies; w_churned = scale w.w_churned }

(* The [i]th topology of a run: its shape, keys and flap schedule. *)
let topology_seed ~seed i = (seed * 1009) + i

let rsa_bits = 384
let outdegree = 3
let flap_window = 0.5 (* virtual seconds *)
let setups_per_topology = 3 (* setup_s sums them all: seconds, not one interval *)
let queries = 400 (* live, and again offline, per churned topology *)

(* --- small helpers ------------------------------------------------------- *)

let now = Unix.gettimeofday

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Nearest-rank percentile of a non-empty list. *)
let percentile (q : float) (xs : float list) : float =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ratio num den = if den > 0.0 then num /. den else 0.0

(* Benchmark-side spans around every call into a layer (traced run
   only); written out as JSON lines at exit. *)
let spans : Obs.Trace.t option ref = ref None

let span name f =
  match !spans with Some tr -> Obs.Trace.with_span tr name f | None -> f ()

(* --- output checks -------------------------------------------------------- *)

type check = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let check = { attempted = 0; failed = 0; notes = [] }

let expect ok what =
  check.attempted <- check.attempted + 1;
  if not ok then begin
    check.failed <- check.failed + 1;
    if List.length check.notes < 10 then check.notes <- what :: check.notes
  end

(* All-pairs shortest path costs over the directed link set: the
   answer every bestPathCost(@S, D, C) must give. *)
let dijkstra_all (topo : Net.Topology.t) : (string * string, int) Hashtbl.t =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun (l : Net.Topology.link) ->
      Hashtbl.replace adj l.l_src
        ((l.l_dst, l.l_cost) :: Option.value (Hashtbl.find_opt adj l.l_src) ~default:[]))
    topo.links;
  let out = Hashtbl.create 1024 in
  List.iter
    (fun src ->
      let dist = Hashtbl.create 64 in
      let settled = Hashtbl.create 64 in
      Hashtbl.replace dist src 0;
      let rec loop () =
        let best =
          Hashtbl.fold
            (fun v d acc ->
              if Hashtbl.mem settled v then acc
              else match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (v, d))
            dist None
        in
        match best with
        | None -> ()
        | Some (u, du) ->
          Hashtbl.replace settled u ();
          List.iter
            (fun (v, c) ->
              match Hashtbl.find_opt dist v with
              | Some dv when dv <= du + c -> ()
              | _ -> Hashtbl.replace dist v (du + c))
            (Option.value (Hashtbl.find_opt adj u) ~default:[]);
          loop ()
      in
      loop ();
      Hashtbl.iter (fun dst d -> if dst <> src then Hashtbl.replace out (src, dst) d) dist)
    topo.nodes;
  out

let check_best_path_costs (rt : Runtime.t) =
  let expected = dijkstra_all (Runtime.topology rt) in
  let got = Runtime.query_all rt "bestPathCost" in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (at, (tu : Engine.Tuple.t)) ->
      let dst = Engine.Value.to_string (Engine.Tuple.arg tu 1) in
      let cost =
        match Engine.Tuple.arg tu 2 with Engine.Value.V_int c -> c | _ -> -1
      in
      Hashtbl.replace seen (at, dst) ();
      expect
        (Hashtbl.find_opt expected (at, dst) = Some cost)
        (Printf.sprintf "bestPathCost(%s,%s)=%d disagrees with Dijkstra" at dst cost))
    got;
  Hashtbl.iter
    (fun (s, d) _ ->
      if not (Hashtbl.mem seen (s, d)) then
        expect false (Printf.sprintf "bestPathCost(%s,%s) missing" s d))
    expected

let check_security (rt : Runtime.t) =
  let st = Runtime.stats rt in
  expect (Runtime.dropped_forged rt = 0) "dropped_forged > 0";
  expect (st.Net.Stats.verification_failures = 0) "verification_failures > 0"

(* --- one topology -------------------------------------------------------- *)

type setup_times = {
  s_total : float;
  s_compile : float;
  s_keygen : float;
  s_alloc_words : float;
}

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Everything a run does before its first event: parse the program,
   draw the topology, provision keys, build the runtime and install
   the link facts.  Keys come from a fresh directory every time, so
   each set-up pays for key generation; [rep] picks the key seed. *)
let setup (w : workload) ~seed ~rep ~log_dir : Runtime.t * setup_times =
  let cfg = Config.with_fault_seed (Config.with_rsa_bits w.w_cfg rsa_bits) seed in
  let cfg = Config.with_prov_log cfg log_dir in
  let words0 = allocated_words () in
  let t0 = now () in
  let program = span "ndlog.parse" Ndlog.Programs.best_path in
  let t1 = now () in
  let topo =
    span "net.topology" (fun () ->
        Net.Topology.random (Crypto.Rng.create ~seed) ~n:w.w_n ~outdegree ())
  in
  let directory = Sendlog.Principal.empty_directory () in
  let t2 = now () in
  span "crypto.keygen" (fun () ->
      Sendlog.Principal.ensure_registered directory
        (Crypto.Rng.create ~seed:(seed + (7919 * (rep + 1))))
        ~rsa_bits topo.nodes);
  let t3 = now () in
  let rt =
    span "runtime.create" (fun () ->
        Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed) ~cfg ~topo ~program ())
  in
  span "runtime.install_links" (fun () -> Runtime.install_links rt);
  let t4 = now () in
  let words1 = allocated_words () in
  ( rt,
    { s_total = t4 -. t0;
      s_compile = t1 -. t0;
      s_keygen = t3 -. t2;
      s_alloc_words = words1 -. words0 } )

type phases = {
  p_setup : float;
  p_converge_wall : float;
  p_converge_sim : float;
  p_reconverge_wall : float;
  p_reconverge_sim : float;
  p_wire_mb : float;
  p_flaps : int;
}

(* Traceback latencies and log costs of the forensics phase. *)
type forensics = {
  f_live : float list; (* seconds per live query *)
  f_offline : float list; (* seconds per offline query, recovered handle *)
  f_partial : int;
  f_sync : float;
  f_recover : float;
  f_records : int;
  f_disk_bytes : int;
}

type topo_result = {
  r_topo : phases;
  r_setup : setup_times list;
  r_fx : forensics;
  r_stats : Net.Stats.t;
  r_retracted : int;
}

let no_forensics =
  { f_live = [];
    f_offline = [];
    f_partial = 0;
    f_sync = 0.0;
    f_recover = 0.0;
    f_records = 0;
    f_disk_bytes = 0 }

let counter name = Obs.Metrics.value (Obs.Metrics.counter Obs.Metrics.default name)

(* Queries cycle over every live bestPath tuple.  Live queries run
   while the runtime is up; the log is then synced, the runtime shut
   down, and the log reopened from disk for the offline queries.
   Every 8th tuple's offline provenance is compared with its live
   provenance. *)
let trace_tuples (rt : Runtime.t) ~log_dir tuples : forensics =
  let nt = Array.length tuples in
  let live = ref [] and partial = ref 0 in
  let canon = Hashtbl.create 256 in
  span "traceback.live" (fun () ->
      for i = 0 to queries - 1 do
        let at, tu = tuples.(i mod nt) in
        let t0 = now () in
        let r = Traceback.query rt ~at tu in
        live := (now () -. t0) :: !live;
        if r.partial then incr partial;
        expect (not r.partial) "live traceback partial";
        if i < nt && i mod 8 = 0 then
          Hashtbl.replace canon (at, Engine.Tuple.interned_identity tu)
            (Provenance.Prov_expr.canonical_string r.expr)
      done);
  let t0 = now () in
  span "prov_log.sync" (fun () -> Runtime.sync_prov_log rt);
  let sync = now () -. t0 in
  span "runtime.shutdown" (fun () -> Runtime.shutdown rt);
  let t0 = now () in
  let log = span "prov_log.recover" (fun () -> Store.Prov_log.open_log ~dir:log_dir ()) in
  let recover = now () -. t0 in
  let offline = ref [] in
  Fun.protect
    ~finally:(fun () -> Store.Prov_log.close log)
    (fun () ->
      span "traceback.offline" (fun () ->
          for i = 0 to queries - 1 do
            let at, tu = tuples.(i mod nt) in
            let ident = Engine.Tuple.interned_identity tu in
            let t0 = now () in
            let r = Traceback.offline_query log ~at ~ident () in
            offline := (now () -. t0) :: !offline;
            if r.partial then incr partial;
            expect (not r.partial) "offline traceback partial";
            match Hashtbl.find_opt canon (at, ident) with
            | Some live_canon when i < nt ->
              expect
                (Provenance.Prov_expr.canonical_string r.expr = live_canon)
                (Printf.sprintf "offline provenance of %s@%s differs from live" ident at)
            | _ -> ()
          done);
      { f_live = !live;
        f_offline = !offline;
        f_partial = !partial;
        f_sync = sync;
        f_recover = recover;
        f_records = Store.Prov_log.record_count log;
        f_disk_bytes = Store.Prov_log.bytes_on_disk log })

let forensics_phase (rt : Runtime.t) ~log_dir : forensics =
  let tuples = Array.of_list (Runtime.query_all rt "bestPath") in
  expect (Array.length tuples > 0) "no bestPath tuples to trace";
  if Array.length tuples = 0 then no_forensics else trace_tuples rt ~log_dir tuples

(* Per-kind wire accounting from the message tap, and the replay of
   each topology's captured stream: seconds and item counts per layer
   (encode, decode, verify, condense). *)
type tap = {
  mutable msgs : Net.Wire.message list; (* current topology, newest first *)
  kind_msgs : int array; (* data, retract, ack *)
  kind_bytes : int array;
  replay_s : float array;
  replay_n : int array;
}

let kind_index = function
  | Net.Wire.K_data -> 0
  | Net.Wire.K_retract -> 1
  | Net.Wire.K_ack -> 2

let new_tap () =
  { msgs = [];
    kind_msgs = Array.make 3 0;
    kind_bytes = Array.make 3 0;
    replay_s = Array.make 4 0.0;
    replay_n = Array.make 4 0 }

let tap_message (tp : tap) _at (m : Net.Wire.message) =
  let k = kind_index m.msg_kind in
  tp.kind_msgs.(k) <- tp.kind_msgs.(k) + 1;
  tp.kind_bytes.(k) <- tp.kind_bytes.(k) + Net.Wire.size m;
  tp.msgs <- m :: tp.msgs

(* --- per-message replay --------------------------------------------------- *)

(* Replay the captured stream through the codec, the verifier and the
   provenance decoder, one layer at a time, outside the runtime. *)
let replay (tp : tap) (cfg : Config.t) (directory : Sendlog.Principal.directory) =
  let msgs = Array.of_list (List.rev tp.msgs) in
  tp.msgs <- [];
  let timed layer count f =
    let t0 = now () in
    let r = f () in
    tp.replay_s.(layer) <- tp.replay_s.(layer) +. (now () -. t0);
    tp.replay_n.(layer) <- tp.replay_n.(layer) + count;
    r
  in
  let n = Array.length msgs in
  let encoded =
    span "replay.encode" (fun () ->
        timed 0 n (fun () -> Array.map Net.Wire.encode_message msgs))
  in
  let decoded =
    span "replay.decode" (fun () ->
        timed 1 n (fun () ->
            Array.map (fun s -> Net.Wire.decode_message_slice (Net.Arena.of_string s)) encoded))
  in
  Array.iter2
    (fun s m -> expect (Net.Wire.encode_message m = s) "wire codec round trip changed a message")
    encoded decoded;
  let signed =
    Array.of_list
      (List.filter_map
         (fun (m : Net.Wire.message) ->
           match m.msg_kind with
           | Net.Wire.K_ack -> None
           | Net.Wire.K_data ->
             Some (m, Net.Wire.signed_bytes ~src:m.msg_src ~dst:m.msg_dst m.msg_tuple)
           | Net.Wire.K_retract ->
             Some (m, Net.Wire.retract_signed_bytes ~src:m.msg_src ~dst:m.msg_dst m.msg_tuple))
         (Array.to_list decoded))
  in
  let verdicts =
    span "replay.verify" (fun () ->
        timed 2 (Array.length signed) (fun () ->
            Array.map
              (fun ((m : Net.Wire.message), bytes) ->
                Sendlog.Auth.verify cfg.auth directory m.msg_auth bytes)
              signed))
  in
  Array.iter
    (fun v ->
      expect (match v with Sendlog.Auth.Forged _ -> false | _ -> true) "replayed verify failed")
    verdicts;
  let blocks =
    Array.of_list
      (List.filter_map (fun (m : Net.Wire.message) -> m.msg_provenance) (Array.to_list decoded))
  in
  let ctx = Provenance.Condense.create_ctx () in
  span "replay.condense" (fun () ->
      timed 3 (Array.length blocks) (fun () ->
          Array.iter
            (fun b -> ignore (Provenance.Condense.of_wire_slice ctx (Net.Arena.of_string b)))
            blocks))

(* The churn schedule: every link goes down once, at a seeded time in
   the flap window, and comes back up after a seeded downtime of
   30-150 ms.  Flapping every link, rather than a Poisson sample of
   links, keeps the churn work a function of the topology: the cost of
   one flap varies by orders of magnitude with the number of best paths
   that cross the link.  The window is short next to the re-convergence
   it causes (seconds of queued work), so most of that work is still
   pending at the last flap, and the time from the last flap to
   quiescence measures it rather than the timing of the last few
   flaps. *)
let flap_every_link (rt : Runtime.t) ~seed =
  let rng = Crypto.Rng.create ~seed:(seed + 104729) in
  List.concat_map
    (fun (l : Net.Topology.link) ->
      let at = Crypto.Rng.float rng flap_window in
      let down = 0.03 +. Crypto.Rng.float rng 0.12 in
      [ (at, l.l_src, l.l_dst, true); (at +. down, l.l_src, l.l_dst, false) ])
    (Runtime.topology rt).links
  |> List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Float.compare a b)

(* Play the schedule on the virtual clock, then run to quiescence.
   Returns the virtual seconds from the last flap to quiescence, which
   leaves out the schedule's own, input-fixed span. *)
let run_churn (rt : Runtime.t) flaps : float =
  let churn_start = Runtime.now rt in
  List.iter
    (fun (at, src, dst, down) ->
      let gap = churn_start +. at -. Runtime.now rt in
      if gap > 0.0 then Runtime.advance rt ~seconds:gap;
      if down then Runtime.link_down rt ~src ~dst else Runtime.link_up rt ~src ~dst)
    flaps;
  let last_flap = Runtime.now rt in
  ignore (Runtime.run rt);
  Runtime.now rt -. last_flap

(* One topology: set up, converge, flap, re-converge, check, and (with
   a log) trace.  The topology is set up [setups] times, each with its
   own keys, and the last set-up is the one run; the others are shut
   down straight away. *)
let run_topology (w : workload) ~seed ~log_dir ~churn ?tap ?(tracing = false)
    ?(setups = setups_per_topology) () =
  let discard (rt, st) =
    Runtime.shutdown rt;
    Option.iter rm_rf log_dir;
    st
  in
  let sts = List.init (setups - 1) (fun rep -> discard (setup w ~seed ~rep ~log_dir)) in
  let rt, st = setup w ~seed ~rep:(setups - 1) ~log_dir in
  let sts = sts @ [ st ] in
  Fun.protect
    ~finally:(fun () ->
      Runtime.shutdown rt;
      Option.iter rm_rf log_dir)
    (fun () ->
      if tracing then ignore (Runtime.enable_tracing rt);
      Option.iter (fun tp -> Runtime.set_message_tap rt (tap_message tp)) tap;
      let t0 = now () in
      let r0 = span "runtime.converge" (fun () -> Runtime.run rt) in
      let converge_wall = now () -. t0 in
      let flaps = if churn then flap_every_link rt ~seed else [] in
      let t0 = now () in
      let reconverge_sim =
        if churn then span "runtime.reconverge" (fun () -> run_churn rt flaps) else 0.0
      in
      let reconverge_wall = now () -. t0 in
      span "check.best_path" (fun () -> check_best_path_costs rt);
      check_security rt;
      Option.iter (fun tp -> replay tp (Runtime.config rt) (Runtime.directory rt)) tap;
      let stats = Runtime.stats rt in
      let topo =
        { p_setup = List.fold_left (fun a s -> a +. s.s_total) 0.0 sts;
          p_converge_wall = converge_wall;
          p_converge_sim = r0.sim_seconds;
          p_reconverge_wall = (if churn then reconverge_wall else 0.0);
          p_reconverge_sim = reconverge_sim;
          p_wire_mb = float_of_int stats.bytes_total /. 1e6;
          p_flaps = List.length flaps / 2 }
      in
      Printf.printf
        "  topology seed %d: setup %.3fs converge %.3fs/%.3fs sim, %d flaps, \
         reconverge %.3fs/%.3fs sim, %.3f MB\n%!"
        seed topo.p_setup topo.p_converge_wall topo.p_converge_sim topo.p_flaps
        topo.p_reconverge_wall topo.p_reconverge_sim topo.p_wire_mb;
      let fx =
        match log_dir with
        | Some dir when churn -> forensics_phase rt ~log_dir:dir
        | _ -> no_forensics
      in
      { r_topo = topo;
        r_setup = sts;
        r_fx = fx;
        r_stats = stats;
        r_retracted = Runtime.tuples_retracted rt })

(* A pass converges every topology of the workload and churns
   [w_churned] of them, spread evenly through the pass so that the
   converge and churn phases sample the same stretch of wall-clock
   time.  Topology seeds derive from the run's seed. *)
let run_pass (w : workload) ~seed ~tmp ?tap ?tracing () =
  List.init w.w_topologies (fun i ->
      let log_dir =
        if w.w_forensics then
          Some (Filename.concat tmp (Printf.sprintf "provlog-%d" i))
        else None
      in
      let churn = (i + 1) * w.w_churned / w.w_topologies > i * w.w_churned / w.w_topologies in
      run_topology w ~seed:(topology_seed ~seed i) ~log_dir ~churn ?tap ?tracing ())

(* --- registry readers ----------------------------------------------------- *)

let hist_sums prefix =
  List.fold_left
    (fun (cnt, sum) (_, m) ->
      match m with
      | Obs.Metrics.M_histogram h when h.Obs.Metrics.h_name = prefix ->
        (cnt + h.h_count, sum +. h.h_sum)
      | _ -> (cnt, sum))
    (0, 0.0)
    (Obs.Metrics.sorted_metrics Obs.Metrics.default)

let gauge name = Obs.Metrics.gauge_value (Obs.Metrics.gauge Obs.Metrics.default name)

(* --- output ---------------------------------------------------------------- *)

let metric_json (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_integer value && Float.abs value < 1e15 then Printf.sprintf "%.0f" value
     else Printf.sprintf "%.17g" value)
    unit

let print_result metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "%-34s %16.6f %s\n" name value unit)
    metrics;
  List.iter (fun n -> Printf.printf "check failed: %s\n" n) (List.rev check.notes);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (check.failed = 0 && check.attempted > 0)
    check.attempted check.failed
    (String.concat ", " (List.map metric_json metrics))

(* Timed run: one pass.  Set-up time, virtual times and bytes are
   summed over its topologies.  Wall times of the phases are per-layer
   figures (see README.md). *)
let timed_run w ~seed ~tmp =
  let topos = List.map (fun r -> r.r_topo) (run_pass w ~seed ~tmp ()) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let total f = List.fold_left (fun a p -> a +. f p) 0.0 topos in
  Printf.printf "workload %s: %d topologies (%d churned), seed %d\n" w.w_name w.w_topologies
    w.w_churned seed;
  [ ("setup_s", total (fun p -> p.p_setup), "s");
    ("converge_sim_s", total (fun p -> p.p_converge_sim), "s");
    ("wire_mb", total (fun p -> p.p_wire_mb), "MB");
    ("heap_peak_mb", heap_mb, "MB");
    ("reconverge_sim_s", total (fun p -> p.p_reconverge_sim), "s") ]

(* Converge wall time untraced and traced: every topology converges
   once each way, back to back and in alternating order, so a drift in
   host speed hits both sides alike.  Returns the two sums. *)
let converge_walls w ~seed ~tmp =
  let walls =
    List.init w.w_topologies (fun i ->
        let converge tracing =
          let log_dir =
            if w.w_forensics then
              Some (Filename.concat tmp (Printf.sprintf "overhead-%d-%b" i tracing))
            else None
          in
          (run_topology w ~seed:(topology_seed ~seed i) ~log_dir ~churn:false ~tracing ~setups:1 ())
            .r_topo.p_converge_wall
        in
        if i mod 2 = 0 then
          let off = converge false in
          (off, converge true)
        else
          let on = converge true in
          (converge false, on))
  in
  ( List.fold_left (fun a (x, _) -> a +. x) 0.0 walls,
    List.fold_left (fun a (_, y) -> a +. y) 0.0 walls )

(* Traced run: the converge pairs, then one full pass with runtime
   tracing, the message tap and benchmark spans.  Per-layer figures
   are totals over that pass. *)
let traced_run w ~seed ~tmp ~trace_out =
  let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs in
  let untraced_wall, traced_wall = converge_walls w ~seed ~tmp in
  Obs.Metrics.reset Obs.Metrics.default;
  let tr = Obs.Trace.create () in
  spans := Some tr;
  let tp = new_tap () in
  let traced = run_pass w ~seed ~tmp ~tap:tp ~tracing:true () in
  spans := None;
  let f = float_of_int in
  let setups = List.concat_map (fun r -> r.r_setup) traced in
  let fxs = List.map (fun r -> r.r_fx) traced in
  let stats = List.map (fun r -> r.r_stats) traced in
  let stat g = sum (fun (s : Net.Stats.t) -> f (g s)) stats in
  let fsum g = sum (fun x -> f (g x)) fxs in
  let retracted = sum (fun r -> f r.r_retracted) traced in
  let live = List.concat_map (fun x -> x.f_live) fxs in
  let offline = List.concat_map (fun x -> x.f_offline) fxs in
  let _, eval_s = hist_sums "eval.rule_seconds" in
  let _, sign_s = hist_sums "crypto.sign_seconds" in
  let _, verify_s = hist_sums "crypto.verify_seconds" in
  let handlers, compute_s = hist_sums "runtime.handler_compute_seconds" in
  let attributed = eval_s +. sign_s +. verify_s in
  let hits = counter "crypto.sign_cache_hits" and misses = counter "crypto.sign_cache_misses" in
  let c_hits = counter "prov.condense_hits" and c_misses = counter "prov.condense_misses" in
  let probes = counter "db.index_probes" and ihits = counter "db.index_hits" in
  let ms q xs = if xs = [] then 0.0 else 1e3 *. percentile q xs in
  let mb b = b /. 1e6 in
  let us_per k = ratio (tp.replay_s.(k) *. 1e6) (f tp.replay_n.(k)) in
  (match trace_out with
  | Some file ->
    let oc = open_out file in
    output_string oc (Obs.Trace.to_json_lines tr);
    close_out oc
  | None -> ());
  let layers =
    [ ("ndlog.compile_s", sum (fun s -> s.s_compile) setups, "s");
      ("crypto.keygen_s", sum (fun s -> s.s_keygen) setups, "s");
      ("setup.alloc_mw", sum (fun s -> s.s_alloc_words) setups /. 1e6, "Mwords");
      ("engine.eval_s", eval_s, "s");
      ("engine.derivations", f (counter "eval.derivations"), "count");
      ("engine.index_hit_ratio", ratio (f ihits) (f probes), "ratio");
      ("engine.full_scans", f (counter "db.full_scans"), "count");
      ("engine.tuples_retracted", retracted, "count");
      ("sendlog.sign_s", sign_s, "s");
      ("sendlog.signatures", stat (fun s -> s.signatures_generated), "count");
      ("sendlog.sign_cache_hit_ratio", ratio (f hits) (f (hits + misses)), "ratio");
      ("sendlog.verify_s", verify_s, "s");
      ("sendlog.verified", stat (fun s -> s.signatures_verified), "count");
      ("sendlog.verify_us_per_msg", us_per 2, "us");
      ("provenance.mb", mb (stat (fun s -> s.bytes_provenance)), "MB");
      ("provenance.condense_hit_ratio", ratio (f c_hits) (f (c_hits + c_misses)), "ratio");
      ("provenance.decode_us_per_msg", us_per 3, "us");
      ("net.msgs_data", f tp.kind_msgs.(0), "count");
      ("net.msgs_retract", f tp.kind_msgs.(1), "count");
      ("net.msgs_ack", f tp.kind_msgs.(2), "count");
      ("net.data_mb", mb (f tp.kind_bytes.(0)), "MB");
      ("net.retract_mb", mb (f tp.kind_bytes.(1)), "MB");
      ("net.ack_mb", mb (f tp.kind_bytes.(2)), "MB");
      ("net.auth_mb", mb (stat (fun s -> s.bytes_auth)), "MB");
      ("net.events", f (counter "sim.events_processed"), "count");
      ("net.queue_depth_max", gauge "sim.queue_depth_max", "count");
      ("net.encode_us_per_msg", us_per 0, "us");
      ("net.decode_us_per_msg", us_per 1, "us");
      ("runtime.handler_compute_s", compute_s, "s");
      ("runtime.handlers", f handlers, "count");
      ("runtime.attributed_share", ratio attributed compute_s, "ratio");
      ("runtime.unattributed_s", compute_s -. attributed, "s");
      ("prov_log.records", fsum (fun x -> x.f_records), "count");
      ("prov_log.disk_mb", mb (fsum (fun x -> x.f_disk_bytes)), "MB");
      ("prov_log.segments_compacted", f (counter "forensics.segments_compacted"), "count");
      ("prov_log.sync_s", sum (fun x -> x.f_sync) fxs, "s");
      ("prov_log.recover_s", sum (fun x -> x.f_recover) fxs, "s");
      ("traceback.live_p50_ms", ms 0.5 live, "ms");
      ("traceback.live_p99_ms", ms 0.99 live, "ms");
      ("traceback.offline_p50_ms", ms 0.5 offline, "ms");
      ("traceback.offline_p99_ms", ms 0.99 offline, "ms");
      ("traceback.partial", fsum (fun x -> x.f_partial), "count") ]
  in
  [ ("runtime.converge_wall_s", untraced_wall, "s");
    ("runtime.reconverge_wall_s", sum (fun r -> r.r_topo.p_reconverge_wall) traced, "s") ]
  @ layers
  @ [ ("trace.overhead_pct", 100.0 *. (ratio traced_wall untraced_wall -. 1.0), "%") ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 40.0 and trace = ref 0 in
  let tmp = ref "" and trace_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (topology, keys, flaps)");
      ("--seconds", Arg.Set_float seconds, "S run length; sizes the workload (40 = reference)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
      ("--tmp", Arg.Set_string tmp, "DIR temporary directory for provenance logs");
      ("--trace-out", Arg.Set_string trace_out, "FILE write benchmark spans (traced run)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> scaled w ~seconds:!seconds
    | None ->
      Printf.eprintf "unknown workload %S (%s)\n" !workload
        (String.concat "|" (List.map (fun w -> w.w_name) workloads));
      exit 2
  in
  if !tmp = "" then (prerr_endline "--tmp DIR is required"; exit 2);
  let metrics =
    if !trace = 0 then timed_run w ~seed:!seed ~tmp:!tmp
    else
      traced_run w ~seed:!seed ~tmp:!tmp
        ~trace_out:(if !trace_out = "" then None else Some !trace_out)
  in
  print_result metrics
