type reason = User | Deadline

exception Cancelled of reason

type t = {
  state : reason option Atomic.t;
  deadline : (Cpla_util.Timer.t * float) option;  (* stopwatch, budget seconds *)
}

let create ?deadline_s () =
  (match deadline_s with
  | Some d when d < 0.0 -> invalid_arg "Token.create: negative deadline"
  | _ -> ());
  {
    state = Atomic.make None;
    deadline = Option.map (fun d -> (Cpla_util.Timer.wall (), d)) deadline_s;
  }

let cancel t = ignore (Atomic.compare_and_set t.state None (Some User))

(* The deadline is latched into [state] the first time it is observed
   expired, so every poll after the first reports the same reason even if a
   concurrent [cancel] arrives later. *)
let status t =
  match Atomic.get t.state with
  | Some r -> Some r
  | None -> (
      match t.deadline with
      | Some (w, budget) when Cpla_util.Timer.elapsed_s w >= budget ->
          ignore (Atomic.compare_and_set t.state None (Some Deadline));
          Atomic.get t.state
      | _ -> None)

let cancelled t = status t <> None

let check t = match status t with Some r -> raise (Cancelled r) | None -> ()
