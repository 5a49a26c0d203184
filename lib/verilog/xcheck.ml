module Circuit = Tvs_netlist.Circuit
module Scan_insert = Tvs_netlist.Scan_insert
module Protocol = Tvs_scan.Protocol

type program = Comb of bool array list | Scan of Protocol.op list

type verdict =
  | Agree of { observations : int }
  | Disagree of { index : int; internal_ : string; external_ : string }
  | Skipped of string
  | Tool_error of string

let bitc b = if b then '1' else '0'

(* MSB-first, matching $display("%b", vec) on a [n-1:0] vector *)
let bits arr =
  let n = Array.length arr in
  String.init n (fun i -> bitc arr.(n - 1 - i))

let internal_trace c program =
  match program with
  | Comb vectors ->
      if Circuit.num_flops c > 0 then
        invalid_arg "Xcheck.internal_trace: Comb program on a sequential circuit";
      let sim = Tvs_sim.Parallel.create c in
      List.filter_map
        (fun pi ->
          let po, _ = Tvs_sim.Parallel.run_single sim ~pi ~state:[||] in
          if Array.length po = 0 then None else Some ("C " ^ bits po))
        vectors
  | Scan ops ->
      if Circuit.num_flops c = 0 then
        invalid_arg "Xcheck.internal_trace: Scan program on a combinational circuit";
      let si = Scan_insert.insert c in
      let obs = Protocol.run si ~init:(Array.make (Circuit.num_flops c) false) ops in
      let ss = ref obs.Protocol.scan_stream in
      let ps = ref obs.Protocol.po_samples in
      List.filter_map
        (fun op ->
          match op with
          | Protocol.Shift _ -> (
              match !ss with
              | b :: tl ->
                  ss := tl;
                  Some (Printf.sprintf "S %c" (bitc b))
              | [] -> assert false)
          | Protocol.Capture _ -> (
              match !ps with
              | po :: tl ->
                  ps := tl;
                  if Array.length po = 0 then None else Some ("C " ^ bits po)
              | [] -> assert false))
        ops

(* ---------- testbench ---------- *)

let vec_literal arr =
  let n = Array.length arr in
  if n = 0 then "1'b0" else Printf.sprintf "%d'b%s" n (bits arr)

let bit_literal b = if b then "1'b1" else "1'b0"

let testbench (e : Emitter.t) program ~expected =
  let { Emitter.pi; po; clk; scan } = e.Emitter.ports in
  let npi = Array.length pi and npo = Array.length po in
  let tb_name = if e.Emitter.module_name = "tvs_tb" then "tvs_tb_" else "tvs_tb" in
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "`timescale 1ns/1ps\n";
  add "module %s;\n" tb_name;
  if npi > 0 then add "  reg [%d:0] pi;\n" (npi - 1);
  (match clk with Some _ -> add "  reg clk;\n" | None -> ());
  (match scan with Some _ -> add "  reg scan_en, scan_in;\n" | None -> ());
  if npo > 0 then add "  wire [%d:0] po;\n" (npo - 1);
  (match scan with Some _ -> add "  wire scan_out;\n" | None -> ());
  add "  integer errors;\n\n";
  let conns =
    List.concat
      [
        Array.to_list (Array.mapi (fun i p -> Printf.sprintf ".%s(pi[%d])" p i) pi);
        (match clk with Some c -> [ Printf.sprintf ".%s(clk)" c ] | None -> []);
        (match scan with
        | Some (se, si, _) ->
            [ Printf.sprintf ".%s(scan_en)" se; Printf.sprintf ".%s(scan_in)" si ]
        | None -> []);
        Array.to_list (Array.mapi (fun i p -> Printf.sprintf ".%s(po[%d])" p i) po);
        (match scan with Some (_, _, so) -> [ Printf.sprintf ".%s(scan_out)" so ] | None -> []);
      ]
  in
  add "  %s dut (%s);\n\n" e.Emitter.module_name (String.concat ", " conns);
  (match program with
  | Scan _ ->
      add "  task tick;\n";
      add "    begin #1; clk = 1'b1; #1; clk = 1'b0; #1; end\n";
      add "  endtask\n\n";
      add "  task shift(input v, input exp);\n";
      add "    begin\n";
      add "      scan_en = 1'b1; scan_in = v;";
      if npi > 0 then add " pi = %d'b0;" npi;
      add "\n";
      add "      #1;\n";
      add "      $display(\"S %%b\", scan_out);\n";
      add "      if (scan_out !== exp) errors = errors + 1;\n";
      add "      tick;\n";
      add "    end\n";
      add "  endtask\n\n";
      add "  task capture(input [%d:0] vec%s);\n" (max npi 1 - 1)
        (if npo > 0 then Printf.sprintf ", input [%d:0] exp" (npo - 1) else "");
      add "    begin\n";
      add "      scan_en = 1'b0; scan_in = 1'b0;";
      if npi > 0 then add " pi = vec;";
      add "\n";
      add "      #1;\n";
      if npo > 0 then begin
        add "      $display(\"C %%b\", po);\n";
        add "      if (po !== exp) errors = errors + 1;\n"
      end;
      add "      tick;\n";
      add "    end\n";
      add "  endtask\n\n"
  | Comb _ ->
      add "  task apply(input [%d:0] vec%s);\n" (max npi 1 - 1)
        (if npo > 0 then Printf.sprintf ", input [%d:0] exp" (npo - 1) else "");
      add "    begin\n";
      if npi > 0 then add "      pi = vec;\n";
      add "      #1;\n";
      if npo > 0 then begin
        add "      $display(\"C %%b\", po);\n";
        add "      if (po !== exp) errors = errors + 1;\n"
      end;
      add "    end\n";
      add "  endtask\n\n");
  add "  initial begin\n";
  add "    errors = 0;";
  (match clk with Some _ -> add " clk = 1'b0;" | None -> ());
  (match scan with Some _ -> add " scan_en = 1'b0; scan_in = 1'b0;" | None -> ());
  if npi > 0 then add " pi = %d'b0;" npi;
  add "\n";
  let exp = ref expected in
  let pop_exp () =
    match !exp with
    | line :: tl ->
        exp := tl;
        Some line
    | [] -> None
  in
  (* each op consumes its expected trace line in lock-step with
     internal_trace's rendering *)
  (match program with
  | Scan ops ->
      List.iter
        (fun op ->
          match op with
          | Protocol.Shift v ->
              let e =
                match pop_exp () with
                | Some line when String.length line = 3 && line.[0] = 'S' ->
                    line.[2] = '1'
                | _ -> invalid_arg "Xcheck.testbench: expected trace out of sync"
              in
              add "    shift(%s, %s);\n" (bit_literal v) (bit_literal e)
          | Protocol.Capture pivec ->
              if npo > 0 then
                let e =
                  match pop_exp () with
                  | Some line when String.length line > 2 && line.[0] = 'C' ->
                      String.sub line 2 (String.length line - 2)
                  | _ -> invalid_arg "Xcheck.testbench: expected trace out of sync"
                in
                add "    capture(%s, %d'b%s);\n" (vec_literal pivec) npo e
              else add "    capture(%s);\n" (vec_literal pivec))
        ops
  | Comb vectors ->
      List.iter
        (fun pivec ->
          if npo > 0 then
            let e =
              match pop_exp () with
              | Some line when String.length line > 2 && line.[0] = 'C' ->
                  String.sub line 2 (String.length line - 2)
              | _ -> invalid_arg "Xcheck.testbench: expected trace out of sync"
            in
            add "    apply(%s, %d'b%s);\n" (vec_literal pivec) npo e
          else add "    apply(%s);\n" (vec_literal pivec))
        vectors);
  add "    if (errors == 0) $display(\"TVS-XCHECK PASS\");\n";
  add "    else $display(\"TVS-XCHECK FAIL %%0d\", errors);\n";
  add "    $finish;\n";
  add "  end\n";
  add "endmodule\n";
  Buffer.contents b

(* ---------- external execution ---------- *)

let find_tool name =
  let sep = if Sys.win32 then ';' else ':' in
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
      String.split_on_char sep path
      |> List.find_map (fun dir ->
             if dir = "" then None
             else
               let cand = Filename.concat dir name in
               if Sys.file_exists cand && not (Sys.is_directory cand) then Some cand
               else None)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let read_file path =
  if not (Sys.file_exists path) then ""
  else begin
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    text
  end

let fresh_workdir () =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let dir = Filename.concat base (Printf.sprintf "tvs-xcheck-%d-%d" (Unix.getpid ()) k) in
    match Unix.mkdir dir 0o755 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (k + 1)
  in
  go 0

let trace_of_output text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line >= 2 && (line.[0] = 'S' || line.[0] = 'C') && line.[1] = ' '
         then Some line
         else None)

let compare_traces internal external_ =
  let rec go i a b =
    match (a, b) with
    | [], [] -> Agree { observations = i }
    | x :: xs, y :: ys ->
        if String.equal x y then go (i + 1) xs ys
        else Disagree { index = i; internal_ = x; external_ = y }
    | x :: _, [] -> Disagree { index = i; internal_ = x; external_ = "" }
    | [], y :: _ -> Disagree { index = i; internal_ = ""; external_ = y }
  in
  go 0 internal external_

let run ?workdir c program =
  match (find_tool "iverilog", find_tool "vvp") with
  | None, _ | _, None ->
      Skipped "iverilog/vvp not found on PATH (install Icarus Verilog to enable)"
  | Some iverilog, Some vvp -> (
      let dir = match workdir with Some d -> d | None -> fresh_workdir () in
      let scan = match program with Scan _ -> true | Comb _ -> false in
      let emitted = Emitter.emit ~scan c in
      let internal = internal_trace c program in
      let tb = testbench emitted program ~expected:internal in
      let path name = Filename.concat dir name in
      write_file (path "design.v") emitted.Emitter.text;
      write_file (path "cells.v") Emitter.cell_models;
      write_file (path "tb.v") tb;
      let compile_log = path "iverilog.log" in
      let sim_out = path "vvp.out" in
      let cmd =
        Printf.sprintf "%s -g2001 -o %s %s %s %s >%s 2>&1" (Filename.quote iverilog)
          (Filename.quote (path "sim.vvp"))
          (Filename.quote (path "tb.v"))
          (Filename.quote (path "design.v"))
          (Filename.quote (path "cells.v"))
          (Filename.quote compile_log)
      in
      if Sys.command cmd <> 0 then
        Tool_error (Printf.sprintf "iverilog failed in %s:\n%s" dir (read_file compile_log))
      else
        let cmd =
          Printf.sprintf "%s %s >%s 2>&1" (Filename.quote vvp)
            (Filename.quote (path "sim.vvp"))
            (Filename.quote sim_out)
        in
        if Sys.command cmd <> 0 then
          Tool_error (Printf.sprintf "vvp failed in %s:\n%s" dir (read_file sim_out))
        else compare_traces internal (trace_of_output (read_file sim_out)))
