(* The pre-refactor tree-walking interpreter, kept as the executable
   specification of the base semantics.  Interp delegates to the
   pre-compiled execution core (Asipfb_exec.Core); this module is the
   oracle the differential tests, the throughput bench, the simulation
   fallback and the translation validator's counterexample search compare
   against.  Deliberately naive: a register array per frame, hashtable
   profile, label lookup per jump.  Its arithmetic is its own, independent
   of Asipfb_exec.Ops, which is the point of an oracle. *)

module Types = Asipfb_ir.Types
module Reg = Asipfb_ir.Reg
module Label = Asipfb_ir.Label
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog

let err fmt =
  Format.kasprintf (fun msg -> raise (Interp.Runtime_error msg)) fmt

type event =
  | Store of { region : string; index : int; value : Value.t }
  | Call of { callee : string; args : Value.t list }
  | Return of Value.t option
  | Trap of { message : string }

let pp_event ppf = function
  | Store { region; index; value } ->
      Format.fprintf ppf "store %s[%d] = %a" region index Value.pp value
  | Call { callee; args } ->
      Format.fprintf ppf "call %s(%a)" callee
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Value.pp)
        args
  | Return None -> Format.fprintf ppf "return"
  | Return (Some v) -> Format.fprintf ppf "return %a" Value.pp v
  | Trap { message } -> Format.fprintf ppf "trap: %s" message

let event_to_string e = Format.asprintf "%a" pp_event e

let event_equal a b =
  match (a, b) with
  | Store x, Store y ->
      x.region = y.region && x.index = y.index && Value.equal x.value y.value
  | Call x, Call y ->
      x.callee = y.callee
      && List.length x.args = List.length y.args
      && List.for_all2 Value.equal x.args y.args
  | Return None, Return None -> true
  | Return (Some x), Return (Some y) -> Value.equal x y
  | Trap x, Trap y -> x.message = y.message
  | _ -> false

let eval_binop op a b =
  match op with
  | Types.Add -> Value.Vint (Value.as_int a + Value.as_int b)
  | Types.Sub -> Value.Vint (Value.as_int a - Value.as_int b)
  | Types.Mul -> Value.Vint (Value.as_int a * Value.as_int b)
  | Types.Div ->
      let d = Value.as_int b in
      if d = 0 then err "integer division by zero"
      else Value.Vint (Value.as_int a / d)
  | Types.Rem ->
      let d = Value.as_int b in
      if d = 0 then err "integer remainder by zero"
      else Value.Vint (Value.as_int a mod d)
  | Types.And -> Value.Vint (Value.as_int a land Value.as_int b)
  | Types.Or -> Value.Vint (Value.as_int a lor Value.as_int b)
  | Types.Xor -> Value.Vint (Value.as_int a lxor Value.as_int b)
  | Types.Shl ->
      let s = Value.as_int b in
      if s < 0 || s > 62 then err "shift amount %d out of range" s
      else Value.Vint (Value.as_int a lsl s)
  | Types.Shr ->
      let s = Value.as_int b in
      if s < 0 || s > 62 then err "shift amount %d out of range" s
      else Value.Vint (Value.as_int a asr s)
  | Types.Fadd -> Value.Vfloat (Value.as_float a +. Value.as_float b)
  | Types.Fsub -> Value.Vfloat (Value.as_float a -. Value.as_float b)
  | Types.Fmul -> Value.Vfloat (Value.as_float a *. Value.as_float b)
  | Types.Fdiv ->
      let d = Value.as_float b in
      if d = 0.0 then err "float division by zero"
      else Value.Vfloat (Value.as_float a /. d)

let eval_unop op a =
  match op with
  | Types.Neg -> Value.Vint (-Value.as_int a)
  | Types.Not -> Value.Vint (lnot (Value.as_int a))
  | Types.Fneg -> Value.Vfloat (-.Value.as_float a)
  | Types.Int_to_float -> Value.Vfloat (float_of_int (Value.as_int a))
  | Types.Float_to_int -> Value.Vint (int_of_float (Value.as_float a))
  | Types.Sin -> Value.Vfloat (sin (Value.as_float a))
  | Types.Cos -> Value.Vfloat (cos (Value.as_float a))
  | Types.Sqrt ->
      let x = Value.as_float a in
      if x < 0.0 then err "sqrt of negative %g" x else Value.Vfloat (sqrt x)
  | Types.Fabs -> Value.Vfloat (Float.abs (Value.as_float a))

(* Pre-resolved function body: instruction array, label positions, and
   the register id range a frame needs slots for. *)
type resolved = {
  func : Func.t;
  instrs : Instr.t array;
  label_pos : (int, int) Hashtbl.t;  (* label id -> index after the mark *)
  reg_base : int;  (* smallest register id in the function *)
  reg_count : int;
}

let resolve (f : Func.t) : resolved =
  let instrs = Array.of_list f.body in
  let label_pos = Hashtbl.create 8 in
  Array.iteri
    (fun idx i ->
      match Instr.kind i with
      | Instr.Label_mark l -> Hashtbl.replace label_pos (Label.id l) idx
      | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Mov _
      | Instr.Load _ | Instr.Store _ | Instr.Jump _ | Instr.Cond_jump _
      | Instr.Call _ | Instr.Ret _ ->
          ())
    instrs;
  let ids =
    List.map Reg.id f.params
    @ List.concat_map
        (fun i -> List.map Reg.id (Option.to_list (Instr.def i) @ Instr.uses i))
        f.body
  in
  let reg_base, reg_count =
    match ids with
    | [] -> (0, 0)
    | id :: rest ->
        let lo = List.fold_left min id rest in
        (lo, List.fold_left max id rest - lo + 1)
  in
  { func = f; instrs; label_pos; reg_base; reg_count }

(* Raised when the budget runs out; [run] reports it as a runtime error,
   [run_traced] as [Out_of_fuel]. *)
exception Fuel_out

type state = {
  memory : Memory.t;
  resolved : (string, resolved) Hashtbl.t;
  profile : Profile.t option;  (* [None] for [run_traced] *)
  emit : (event -> unit) option;  (* observation hook; [None] for [run] *)
  faults : Fault.t option;
  mutable fuel : int;
  mutable executed : int;
}

let observe st ev = match st.emit with Some emit -> emit ev | None -> ()

let get_resolved st name =
  match Hashtbl.find_opt st.resolved name with
  | Some r -> r
  | None -> err "call to unknown function %s" name

let rec run_func st (r : resolved) (args : Value.t list) : Value.t option =
  let regs : Value.t option array = Array.make r.reg_count None in
  let set_reg reg v =
    let v = match st.faults with Some f -> Fault.on_reg_write f v | None -> v in
    regs.(Reg.id reg - r.reg_base) <- Some v
  in
  let get_reg reg =
    match regs.(Reg.id reg - r.reg_base) with
    | Some v -> v
    | None -> err "read of uninitialized register %s" (Reg.to_string reg)
  in
  let operand = function
    | Instr.Reg reg -> get_reg reg
    | Instr.Imm_int n -> Value.Vint n
    | Instr.Imm_float x -> Value.Vfloat x
  in
  (try List.iter2 (fun p a -> set_reg p a) r.func.params args
   with Invalid_argument _ -> err "arity mismatch calling %s" r.func.name);
  let jump_to l =
    match Hashtbl.find_opt r.label_pos (Label.id l) with
    | Some idx -> idx + 1
    | None -> err "jump to unknown label %s" (Label.to_string l)
  in
  let rec step pc : Value.t option =
    if pc >= Array.length r.instrs then
      err "fell off the end of %s" r.func.name
    else begin
      let i = r.instrs.(pc) in
      if Instr.is_label i then step (pc + 1)
      else begin
        if st.fuel <= 0 then raise Fuel_out;
        st.fuel <- st.fuel - 1;
        st.executed <- st.executed + 1;
        (match st.profile with
        | Some profile -> Profile.bump profile ~opid:(Instr.opid i)
        | None -> ());
        match Instr.kind i with
        | Instr.Binop (op, d, a, b) ->
            set_reg d (eval_binop op (operand a) (operand b));
            step (pc + 1)
        | Instr.Unop (op, d, a) ->
            set_reg d (eval_unop op (operand a));
            step (pc + 1)
        | Instr.Cmp (ty, rel, d, a, b) ->
            let holds =
              match ty with
              | Types.Int ->
                  Types.eval_relop_int rel
                    (Value.as_int (operand a))
                    (Value.as_int (operand b))
              | Types.Float ->
                  Types.eval_relop_float rel
                    (Value.as_float (operand a))
                    (Value.as_float (operand b))
            in
            set_reg d (Value.Vint (if holds then 1 else 0));
            step (pc + 1)
        | Instr.Mov (d, a) ->
            set_reg d (operand a);
            step (pc + 1)
        | Instr.Load (_, d, region, index) -> (
            let idx = Value.as_int (operand index) in
            match Memory.load st.memory region idx with
            | v ->
                let v =
                  match st.faults with
                  | Some f -> Fault.on_mem_load f v
                  | None -> v
                in
                set_reg d v;
                step (pc + 1)
            | exception Memory.Bounds (name, at) ->
                err "load out of bounds: %s[%d]" name at)
        | Instr.Store (_, region, index, value) -> (
            let idx = Value.as_int (operand index) in
            let value = operand value in
            match Memory.store st.memory region idx value with
            | () ->
                observe st (Store { region; index = idx; value });
                step (pc + 1)
            | exception Memory.Bounds (name, at) ->
                err "store out of bounds: %s[%d]" name at)
        | Instr.Jump l -> step (jump_to l)
        | Instr.Cond_jump (a, l) ->
            if Value.as_int (operand a) <> 0 then step (jump_to l)
            else step (pc + 1)
        | Instr.Call (dst, name, args) ->
            let callee = get_resolved st name in
            let argv = List.map operand args in
            observe st (Call { callee = name; args = argv });
            let result = run_func st callee argv in
            (match (dst, result) with
            | Some d, Some v -> set_reg d v
            | Some _, None -> err "void call result used (%s)" name
            | None, _ -> ());
            step (pc + 1)
        | Instr.Ret v ->
            let value = Option.map operand v in
            observe st (Return value);
            value
        | Instr.Label_mark _ -> assert false
      end
    end
  in
  step 0

(* Seeded memory and a fresh state; the entry is resolved by the caller so
   an unknown entry is a runtime error, like any unknown callee. *)
let start ~fuel ~inputs ?profile ?emit ?faults (p : Prog.t) =
  let memory = Memory.create p in
  List.iter (fun (region, data) -> Memory.seed memory region data) inputs;
  let resolved = Hashtbl.create 8 in
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace resolved f.name (resolve f))
    p.funcs;
  let fuel = match faults with Some f -> Fault.clamp_fuel f fuel | None -> fuel in
  { memory; resolved; profile; emit; faults; fuel; executed = 0 }

let run_entry st (p : Prog.t) = run_func st (get_resolved st p.entry) []

let run ?(fuel = 50_000_000) ?(inputs = []) ?faults (p : Prog.t) :
    Interp.outcome =
  let profile = Profile.create () in
  let st = start ~fuel ~inputs ~profile ?faults p in
  let return_value =
    try run_entry st p
    with Fuel_out -> err "out of fuel (infinite loop?)"
  in
  { return_value; profile; memory = st.memory;
    instrs_executed = st.executed }

type result =
  | Returned of Value.t option
  | Trapped of string
  | Out_of_fuel

type traced = {
  trace : event list;
  result : result;
  memory : Memory.t;
  instrs_executed : int;
}

let run_traced ?(fuel = 50_000_000) ?(inputs = []) (p : Prog.t) : traced =
  let trace_rev = ref [] in
  let emit ev = trace_rev := ev :: !trace_rev in
  let st = start ~fuel ~inputs ~emit p in
  let trapped message =
    trace_rev := Trap { message } :: !trace_rev;
    Trapped message
  in
  let result =
    match run_entry st p with
    | v -> Returned v
    | exception Fuel_out -> Out_of_fuel
    | exception Interp.Runtime_error m -> trapped m
    | exception Invalid_argument m -> trapped m
  in
  { trace = List.rev !trace_rev; result; memory = st.memory;
    instrs_executed = st.executed }
