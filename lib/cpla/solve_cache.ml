(* Content-addressed cache of fractional partition solves.

   Keyed by [Formulation.digest] plus a fingerprint of the SDP options and
   the overflow weight α (any input that changes the arithmetic changes
   the key), valued by the materialised fractional table of
   [Sdp_method.solve].  The cache stores *cold-start* solves only: a
   warm-started result depends on the seeding factor and hence on solve
   history, which would make cache contents order-dependent; restricting
   entries to cold solves keeps the cache a pure function of (canonical
   formulation, options, α) — what makes sharing one cache across daemon
   jobs sound.

   A single mutex guards the table: entries are looked up once per dirty
   leaf per sweep, so contention is negligible next to a solve.  The table
   is cleared wholesale when it reaches [max_entries] — simple, and ample
   for the serve workload where near-identical jobs arrive close
   together.  The hit/miss counters are atomics, not mutex state: the
   daemon's event loop reads them while answering stats requests and must
   never queue behind a worker's table access. *)

type t = {
  mutex : Mutex.t;
  table : (string, float array array) Hashtbl.t;
  max_entries : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(max_entries = 4096) () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 256;
    max_entries = max 1 max_entries;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let options_fingerprint (o : Cpla_sdp.Solver.options) =
  Printf.sprintf "r%d,o%d,i%d,s%.9g,g%.9g,f%.9g,e%d" o.Cpla_sdp.Solver.rank
    o.Cpla_sdp.Solver.max_outer o.Cpla_sdp.Solver.inner_iters o.Cpla_sdp.Solver.sigma0
    o.Cpla_sdp.Solver.sigma_growth o.Cpla_sdp.Solver.feas_tol o.Cpla_sdp.Solver.seed

let key ~options ~alpha digest =
  Printf.sprintf "%s|%s,a%.9g" digest (options_fingerprint options) alpha

let find t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.table key in
  Mutex.unlock t.mutex;
  (match r with
  | Some _ ->
      Atomic.incr t.hits;
      Cpla_obs.Metrics.incr "solve-cache/hits"
  | None ->
      Atomic.incr t.misses;
      Cpla_obs.Metrics.incr "solve-cache/misses");
  r

let store t key frac =
  Mutex.lock t.mutex;
  if Hashtbl.length t.table >= t.max_entries then Hashtbl.reset t.table;
  Hashtbl.replace t.table key frac;
  Mutex.unlock t.mutex

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses

let length t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n
