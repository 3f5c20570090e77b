(* Bottom-up DP.  For the tree edge owned by node [v] (the edge v→parent v)
   and each candidate layer [l]:

     best v l = seg_cost v l
              + Σ_{pin p at v} via_cost v p l
              + Σ_{child c of v} min_{l'} (best c l' + via_cost v l' l)

   and the root closes with Σ pins at root vs. each child edge layer.  The
   pin terms charge pin vias at the node where the pin lives, against the
   layer of the edge *above* that node, which matches the stacked-via model
   used by the assignment state closely enough for optimisation purposes
   (the exact span model is not pairwise-decomposable).

   The tables are flat: node [v]'s candidates are [cands.(v)], the cost of
   its [ci]-th candidate is [cost.(off.(v) + ci)], and the layer picked for
   its [k]-th child under that candidate is
   [back.(boff.(v) + (ci * nkids v) + k)]. *)

(* Σ_{pin layer p} via_cost ~node p l, summed from 0.0 in list order. *)
let[@inline] pin_sum via_cost node l pins =
  let acc = ref 0.0 and ps = ref pins in
  while
    match !ps with
    | [] -> false
    | p :: rest ->
        acc := !acc +. via_cost ~node p l;
        ps := rest;
        true
  do
    ()
  done;
  !acc

let solve ~tree ~node_to_seg ~pins_at ~candidates ~seg_cost ~via_cost =
  let n = Stree.num_nodes tree and parent = tree.Stree.parent in
  (* children of v, ascending: kid.(kstart.(v)) .. kid.(kstart.(v+1)-1) *)
  let kstart = Array.make (n + 1) 0 in
  Array.iter (fun p -> if p >= 0 then kstart.(p + 1) <- kstart.(p + 1) + 1) parent;
  for v = 1 to n do
    kstart.(v) <- kstart.(v) + kstart.(v - 1)
  done;
  let kid = Array.make (max 0 (n - 1)) 0 and fill = Array.sub kstart 0 n in
  for i = 0 to n - 1 do
    let p = parent.(i) in
    if p >= 0 then begin
      kid.(fill.(p)) <- i;
      fill.(p) <- fill.(p) + 1
    end
  done;
  let nkids v = kstart.(v + 1) - kstart.(v) in
  (* Processing order: the reverse of a stack-based pre-order walk that
     pushes children in ascending order, so children come before parents. *)
  let order = Array.make n 0 and stack = fill in
  let top = ref 1 and popped = ref 0 in
  stack.(0) <- tree.Stree.root;
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    order.(!popped) <- v;
    incr popped;
    for j = kstart.(v) to kstart.(v + 1) - 1 do
      stack.(!top) <- kid.(j);
      incr top
    done
  done;
  let cands = Array.make n [] and ncand = Array.make n 0 in
  let off = Array.make (n + 1) 0 and boff = Array.make (n + 1) 0 in
  for j = !popped - 1 downto 0 do
    let v = order.(j) in
    let seg = node_to_seg.(v) in
    if seg >= 0 then begin
      let cs = candidates seg in
      if List.is_empty cs then invalid_arg "Tree_dp.solve: empty candidate set";
      cands.(v) <- cs;
      ncand.(v) <- List.length cs
    end
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + ncand.(v);
    boff.(v + 1) <- boff.(v) + (ncand.(v) * nkids v)
  done;
  let cost = Array.make off.(n) 0.0 and back = Array.make boff.(n) (-1) in
  for j = !popped - 1 downto 0 do
    let v = order.(j) in
    let seg = node_to_seg.(v) in
    if seg >= 0 then begin
      let nk = nkids v in
      let cs = ref cands.(v) and ci = ref 0 in
      while
        match !cs with
        | [] -> false
        | l :: rest ->
            let base = seg_cost seg l +. pin_sum via_cost v l (pins_at v) in
            let total = ref base in
            for k = 0 to nk - 1 do
              let c = kid.(kstart.(v) + k) in
              assert (node_to_seg.(c) >= 0);
              (* the child's cheapest candidate under l, first on ties *)
              let best = ref infinity and best_l = ref (-1) in
              let ccs = ref cands.(c) and cci = ref 0 in
              while
                match !ccs with
                | [] -> false
                | l' :: rest ->
                    let v' = cost.(off.(c) + !cci) +. via_cost ~node:v l' l in
                    if v' < !best then begin
                      best := v';
                      best_l := l'
                    end;
                    ccs := rest;
                    incr cci;
                    true
              do
                ()
              done;
              total := !total +. !best;
              back.(boff.(v) + (!ci * nk) + k) <- !best_l
            done;
            cost.(off.(v) + !ci) <- !total;
            cs := rest;
            incr ci;
            true
      do
        ()
      done
    end
  done;
  let nsegs = Array.fold_left (fun acc s -> if s >= 0 then acc + 1 else acc) 0 node_to_seg in
  let choice = Array.make nsegs (-1) in
  (* Walk back down recording choices. *)
  let rec commit v l =
    let seg = node_to_seg.(v) in
    assert (seg >= 0);
    choice.(seg) <- l;
    (* index of l among v's candidates (the last match) *)
    let ci = ref (-1) and i = ref 0 and cs = ref cands.(v) in
    while
      match !cs with
      | [] -> false
      | l' :: rest ->
          if l' = l then ci := !i;
          incr i;
          cs := rest;
          true
    do
      ()
    done;
    assert (!ci >= 0);
    let nk = nkids v in
    for k = 0 to nk - 1 do
      commit kid.(kstart.(v) + k) back.(boff.(v) + (!ci * nk) + k)
    done
  in
  (* Root: combine children with pin vias at the root tile. *)
  let root = tree.Stree.root in
  let root_choice = Array.make (nkids root) (-1) in
  for k = 0 to nkids root - 1 do
    let c = kid.(kstart.(root) + k) in
    let best = ref infinity and cs = ref cands.(c) and ci = ref 0 in
    while
      match !cs with
      | [] -> false
      | l' :: rest ->
          let v' = cost.(off.(c) + !ci) +. pin_sum via_cost root l' (pins_at root) in
          if v' < !best then begin
            best := v';
            root_choice.(k) <- l'
          end;
          cs := rest;
          incr ci;
          true
    do
      ()
    done
  done;
  for k = 0 to nkids root - 1 do
    commit kid.(kstart.(root) + k) root_choice.(k)
  done;
  choice
