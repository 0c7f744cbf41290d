package transport

// PendingRequests is how many requests a TCP client, bare or instrumented,
// holds in its pending table waiting for a reply; -1 for any other client.
func PendingRequests(c Client) int {
	if ic, ok := c.(*instrumentedClient); ok {
		c = ic.next
	}
	tc, ok := c.(*tcpClient)
	if !ok {
		return -1
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.pending)
}

// ReplyDelivered reports that p's reply is waiting in its channel, so a
// test can call Wait knowing the reply arrived first.
func ReplyDelivered(p Pending) bool { return len(p.reply) == 1 }
