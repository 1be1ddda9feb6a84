package vmm

// MailEntries returns the number of live (proc, tag) mailbox entries
// across every VM of the world — the quantity the mailbox lifecycle
// keeps bounded.
func (w *World) MailEntries() int {
	n := 0
	for _, vm := range w.vms {
		n += len(vm.mail)
	}
	return n
}
