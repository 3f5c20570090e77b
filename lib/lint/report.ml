(* Deterministic rendering: every format sorts by (file, line, col, rule,
   message) and drops exact duplicates, so CI logs and committed SARIF
   artifacts diff stably whatever order the findings were produced in. *)
let normalize findings = List.sort_uniq Finding.compare findings

let human fmt findings =
  let findings = normalize findings in
  List.iter (fun f -> Format.fprintf fmt "%a@." Finding.pp f) findings;
  let n = List.length findings in
  Format.fprintf fmt "cpla-lint: %d finding%s@." n (if n = 1 then "" else "s")

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json fmt findings =
  let findings = normalize findings in
  Format.fprintf fmt "{\"findings\":[";
  List.iteri
    (fun i (f : Finding.t) ->
      Format.fprintf fmt "%s{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
        (if i = 0 then "" else ",")
        (escape f.Finding.file) f.Finding.line f.Finding.col (escape f.Finding.rule)
        (escape f.Finding.message))
    findings;
  Format.fprintf fmt "],\"count\":%d}@." (List.length findings)

(* GitHub Actions workflow commands: one [::error] annotation per finding.
   Newlines (the capture chains in domain-race messages) must be %-escaped
   or the runner truncates the message at the first line break. *)
let github_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let github fmt findings =
  let findings = normalize findings in
  List.iter
    (fun (f : Finding.t) ->
      Format.fprintf fmt "::error file=%s,line=%d,col=%d,title=cpla-lint %s::%s@."
        (github_escape f.Finding.file)
        (max 1 f.Finding.line) (f.Finding.col + 1) (github_escape f.Finding.rule)
        (github_escape f.Finding.message))
    findings;
  let n = List.length findings in
  Format.fprintf fmt "cpla-lint: %d finding%s@." n (if n = 1 then "" else "s")

(* SARIF 2.1.0, hand-rolled on the same JSON string escaping as [json]:
   one run, one result per finding, rule metadata in the driver so code
   scanning renders synopsis and rationale. *)
let sarif fmt findings =
  let findings = normalize findings in
  let fired = List.sort_uniq String.compare (List.map (fun f -> f.Finding.rule) findings) in
  let rules_meta = List.filter (fun (r : Rule.t) -> List.mem r.Rule.id fired) Rule.all in
  Format.fprintf fmt
    "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{";
  Format.fprintf fmt
    "\"tool\":{\"driver\":{\"name\":\"cpla-lint\",\"informationUri\":\"DESIGN.md\",\"rules\":[";
  List.iteri
    (fun i (r : Rule.t) ->
      Format.fprintf fmt
        "%s{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"fullDescription\":{\"text\":\"%s\"}}"
        (if i = 0 then "" else ",")
        (escape r.Rule.id) (escape r.Rule.synopsis) (escape r.Rule.rationale))
    rules_meta;
  Format.fprintf fmt "]}},\"results\":[";
  List.iteri
    (fun i (f : Finding.t) ->
      Format.fprintf fmt
        "%s{\"ruleId\":\"%s\",\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
        (if i = 0 then "" else ",")
        (escape f.Finding.rule) (escape f.Finding.message) (escape f.Finding.file)
        (max 1 f.Finding.line) (f.Finding.col + 1))
    findings;
  Format.fprintf fmt "]}]}@."

let rules fmt =
  List.iter
    (fun (r : Rule.t) ->
      let tag =
        match r.Rule.analysis with
        | Rule.File_local -> "file"
        | Rule.Whole_program -> "program"
      in
      Format.fprintf fmt "%-18s [%s] %s@.%18s rationale: %s@." r.Rule.id tag r.Rule.synopsis
        "" r.Rule.rationale)
    Rule.all
