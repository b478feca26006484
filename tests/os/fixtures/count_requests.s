# Serves the simulated network: accepts requests until sys_net_accept
# returns -1, replies to each, then prints how many it served (no newline)
# and exits 0.  `rse_run --requests N` sets N; the network's default is 100.
.text
main:
  li s0, 0            # requests served
accept:
  li v0, 10           # net_accept -> v0 = request id, or -1 when none remain
  syscall
  blt v0, zero, done
  move a0, v0
  li v0, 12           # net_reply(a0)
  syscall
  addi s0, s0, 1
  b accept
done:
  move a0, s0
  li v0, 2            # print_int
  syscall
  li a0, 0
  li v0, 1            # exit
  syscall
