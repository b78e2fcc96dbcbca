"""The layered communication plane, bottom up.

* :mod:`repro.comm.codec` — the **field codec**: one field's
  sub-messages for every peer of a phase in one pass, and one
  sub-message decoded in place (all metadata modes).
* :mod:`repro.comm.frame` — the **aggregated wire frame**: many
  sub-messages in one buffer (u16 field count + per-field u32 lengths).
* :mod:`repro.comm.channel` — the **channel layer**: one
  :class:`~repro.comm.channel.Channel` per (src, dst) pair holding a
  phase's sub-messages and flushing one frame per peer, behind the
  per-host :class:`~repro.comm.channel.CommPlane`.

The Gluon substrate drives the plane; DESIGN.md's "Communication plane"
section has the wire layout and the message-count arithmetic.
"""
