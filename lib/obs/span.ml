let dom_id () = (Domain.self () :> int)

let with_ ~name ?(args = []) ?result_args f =
  if not (Control.enabled ()) then f ()
  else begin
    Sink.record
      { Event.name; ph = Event.Begin; ts_ns = Cpla_util.Timer.now_ns (); dom = dom_id (); args };
    let finish args =
      Sink.record
        { Event.name; ph = Event.End; ts_ns = Cpla_util.Timer.now_ns (); dom = dom_id (); args }
    in
    match f () with
    | v ->
        finish (match result_args with None -> [] | Some g -> g v);
        v
    | exception e ->
        finish [ ("exn", Event.Str (Printexc.to_string e)) ];
        raise e
  end

let instant ~name ?(args = []) () =
  if Control.enabled () then
    Sink.record
      {
        Event.name;
        ph = Event.Instant;
        ts_ns = Cpla_util.Timer.now_ns ();
        dom = dom_id ();
        args;
      }

(* The worker pool lives below this library (cpla_util), so it cannot call
   [with_] directly; it exposes a probe slot instead and [Obs.set_enabled]
   installs this wrapper there.  Running the wrapper on the worker domain —
   not at submit time — is what lands each task's span in that domain's own
   buffer, giving the trace one track per worker. *)
let pool_probe =
  {
    Cpla_util.Pool.wrap =
      (fun ~name ~index f -> with_ ~name ~args:[ ("index", Event.Int index) ] f);
  }
