(** Abstract syntax of the SCALD-like hardware description language.

    The original SCALD Hardware Description Language is graphics-based
    (drawings captured with the Stanford University Drawing System); this
    is a textual rendering with the same structure: hierarchical macro
    definitions with width parameters, signal names that carry timing
    assertions, complement prefixes, scope suffixes ([/P] parameter,
    [/M] macro-local) and evaluation directives ([&H...]).

    Example:
    {v
    MACRO REG 10176;
    PARAMETER I<0:SIZE-1> /P, CK /P, Q<0:SIZE-1> /P;
    BODY
      REG (DELAY=1.5/4.5) (I<0:SIZE-1> /P, CK /P) -> Q<0:SIZE-1> /P;
      SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (I<0:SIZE-1> /P, CK /P);
    END;

    PERIOD 50.0;
    CLOCK UNIT 6.25;
    REG 10176 (SIZE=32) (RAM OUT, CK .P0-4) -> REG OUT;
    v} *)

type scope =
  | Param   (** [/P]: a parameter of the enclosing macro *)
  | Local   (** [/M]: local to the macro; renamed uniquely per expansion *)
  | Global  (** no suffix: a design-wide signal *)

type sigref = {
  complement : bool;  (** leading ["-"] *)
  name : string;      (** full signal name text, including any vector
                          subscript (possibly with size expressions) and
                          assertion suffix *)
  scope : scope;
  directive : string option;  (** trailing ["&..."] evaluation string *)
}

type prop = {
  p_name : string;
  p_values : float list;  (** slash-separated numbers, e.g. [DELAY=1.0/3.8] *)
}

type instance = {
  i_head : string;      (** primitive or macro name, e.g. ["3 CHG"] *)
  i_props : prop list;
  i_args : sigref list;
  i_outs : sigref list; (** after ["->"]; empty for checkers *)
  i_line : int;
}

type macro_def = {
  m_name : string;
  m_params : sigref list;
  m_body : instance list;
  m_line : int;
}

type top_stmt =
  | Period of float             (** [PERIOD 50.0;] in ns *)
  | Clock_unit of float         (** [CLOCK UNIT 6.25;] in ns *)
  | Default_wire of float * float  (** [DEFAULT WIRE DELAY 0.0/2.0;] *)
  | Wire_rule of (float * float) * (float * float)
      (** [WIRE RULE 0.0/1.0 PER LOAD 0.0/0.5;] — the §3.3 refined
          interconnection rule: base range plus an increment per load
          beyond the first, applied to every net without an explicit
          [WIRE DELAY] *)
  | Wire_delay of sigref * (float * float)
      (** [WIRE DELAY (ADR<0:3>) = 0.0/6.0;] *)
  | Width_decl of sigref * int  (** [WIDTH (W DATA .S0-6) = 32;] *)
  | Corners of (string * float list) list
      (** [CORNERS slow, typ, hot = 1.4/1.2;] — each entry names a delay
          corner with optional delay[/wire] scale factors; a bare name
          must be one of the presets ([slow], [typ], [fast]) *)
  | Macro of macro_def
  | Top_instance of instance

type design = top_stmt list
